// Self-tests of the benchmark's own machinery, run by run.py after every
// build: the feed oracle rejects a doctored feed, the op stream is a pure
// function of the seed, and a churn pool leaves the graph as it found it.

#include <cstdio>
#include <string>

#include "bench.h"
#include "gen/presets.h"
#include "store/feed_service.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

struct Fixture {
  piggy::Graph graph;
  piggy::Workload workload;
};

Fixture MakeFixture() {
  Fixture f{piggy::MakeFlickrLike(600, 11).ValueOrDie(), {}};
  f.workload =
      piggy::GenerateWorkload(f.graph, {.read_write_ratio = 5, .min_rate = 0.01}).ValueOrDie();
  return f;
}

void OracleRejectsDoctoredFeed(const Fixture& f) {
  auto service = piggy::FeedService::Create(f.graph, f.workload, {}).MoveValueOrDie();
  // u's followees share one event each; u's feed must be exactly those.
  piggy::NodeId u = 0;
  while (f.graph.InDegree(u) < 3) ++u;
  std::vector<NodeId> expected;
  for (NodeId p : f.graph.InNeighbors(u)) {
    if (expected.size() == service->options().prototype.feed_size) break;
    Expect(service->Share(p).ok(), "followee share acked");
    expected.push_back(p);
  }
  std::vector<EventTuple> feed = service->QueryStream(u).MoveValueOrDie();
  Expect(CheckAuditFeed(u, expected, feed, 0).ok(), "oracle accepts the served feed");

  std::vector<EventTuple> dropped = feed;
  dropped.pop_back();
  Expect(!CheckAuditFeed(u, expected, dropped, 0).ok(), "oracle rejects a missing event");
  std::vector<EventTuple> swapped = feed;
  std::swap(swapped[0], swapped[1]);
  Expect(!CheckAuditFeed(u, expected, swapped, 0).ok(), "oracle rejects a reordered feed");
  std::vector<EventTuple> foreign = feed;
  foreign[0].producer = u == 1 ? 2 : 1;
  if (foreign[0].producer == expected.back()) foreign[0].producer = u + 3;
  Expect(!CheckAuditFeed(u, expected, foreign, 0).ok(), "oracle rejects a foreign producer");
  Expect(!CheckAuditFeed(u, expected, feed, feed[0].event_id).ok(),
         "oracle rejects events older than the round");

  std::vector<uint64_t> acked(f.graph.num_nodes(), 0);
  for (NodeId p : expected) ++acked[p];
  const std::vector<EventTuple> log = service->ServingPlane().ValueOrDie()->EventLog();
  Expect(CheckAckedShares(acked, log).ok(), "acked shares match the event log");
  ++acked[expected[0]];
  Expect(!CheckAckedShares(acked, log).ok(), "a lost acked share is caught");
}

void SameSeedSameStream(const Fixture& f) {
  const ChurnSpec churn{200};
  const uint64_t a = HashOpStream(MakeOpStream(f.graph, f.workload, 5000, churn, 7));
  const uint64_t b = HashOpStream(MakeOpStream(f.graph, f.workload, 5000, churn, 7));
  const uint64_t c = HashOpStream(MakeOpStream(f.graph, f.workload, 5000, churn, 8));
  Expect(a == b, "same seed gives an identical op-stream hash");
  Expect(a != c, "another seed gives another op stream");
}

void ChurnPoolRestoresTopology(const Fixture& f) {
  const OpStream stream = MakeOpStream(f.graph, f.workload, 5000, {200}, 5);
  Expect(stream.churn_ops > 0, "churn stream holds churn ops");
  auto service = piggy::FeedService::Create(f.graph, f.workload, {}).MoveValueOrDie();
  bool all_new = true, all_ok = true;
  for (const Op& op : stream.ops) {
    if (op.kind == OpKind::kFollow) {
      all_new = all_new && !service->graph().HasEdge(op.other, op.user);
      all_ok = all_ok && service->Follow(op.user, op.other).ok();
    } else if (op.kind == OpKind::kUnfollow) {
      all_ok = all_ok && service->Unfollow(op.user, op.other).ok();
    }
  }
  Expect(all_new, "every follow in the stream adds an edge");
  Expect(all_ok, "churn ops are acked");
  bool same = service->graph().num_edges() == f.graph.num_edges();
  f.graph.ForEachEdge(
      [&](const piggy::Edge& e) { same = same && service->graph().HasEdge(e.src, e.dst); });
  Expect(same, "the churn pairs return the graph to its starting topology");
  Expect(service->Validate().ok(), "schedule valid after the churn pairs");
}

}  // namespace
}  // namespace perfbench

int main() {
  const perfbench::Fixture f = perfbench::MakeFixture();
  perfbench::OracleRejectsDoctoredFeed(f);
  perfbench::SameSeedSameStream(f);
  perfbench::ChurnPoolRestoresTopology(f);
  std::printf("%s\n", perfbench::failures == 0 ? "selftest: all passed" : "selftest: FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
