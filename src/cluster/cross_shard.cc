#include "cluster/cross_shard.h"

#include <algorithm>

#include "util/logging.h"

namespace piggy {

namespace {

// Appends to the vector stored under `key`, creating it on first use.
template <typename V>
std::vector<V>& GetOrCreate(U64Map<std::vector<V>>& map, uint64_t key) {
  std::vector<V>* v = map.Find(key);
  if (v != nullptr) return *v;
  map.Put(key, {});
  return *map.Find(key);
}

// Removes one occurrence of `value`, erasing the map entry once empty.
template <typename V>
void EraseValue(U64Map<std::vector<V>>& map, uint64_t key, V value) {
  std::vector<V>* v = map.Find(key);
  PIGGY_CHECK(v != nullptr);
  auto it = std::find(v->begin(), v->end(), value);
  PIGGY_CHECK(it != v->end());
  v->erase(it);
  if (v->empty()) map.Erase(key);
}

void SortedInsert(std::vector<uint32_t>& v, uint32_t x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

}  // namespace

CrossShardIndex::CrossShardIndex(size_t num_shards, SeqSlots* slots)
    : num_shards_(num_shards),
      slots_(slots),
      replicas_per_shard_(num_shards, 0),
      per_shard_update_messages_(num_shards),
      per_shard_query_messages_(num_shards) {
  PIGGY_CHECK_GT(num_shards, 0u);
  PIGGY_CHECK(slots != nullptr);
}

std::optional<CrossEdgeMode> CrossShardIndex::ModeOf(NodeId producer,
                                                     NodeId consumer) const {
  const EdgeRec* rec = edges_.Find(EdgeKey(producer, consumer));
  return rec ? std::optional<CrossEdgeMode>(rec->mode) : std::nullopt;
}

CrossShardIndex::ReplicaRec* CrossShardIndex::FindReplica(NodeId producer,
                                                          uint32_t shard) {
  std::vector<ReplicaRec>* v = replicas_.Find(producer);
  if (v == nullptr) return nullptr;
  for (ReplicaRec& r : *v) {
    if (r.shard == shard) return &r;
  }
  return nullptr;
}

bool CrossShardIndex::AddEdge(NodeId producer, uint32_t producer_shard,
                              NodeId consumer, uint32_t consumer_shard,
                              CrossEdgeMode mode) {
  PIGGY_CHECK_LT(producer_shard, num_shards_);
  PIGGY_CHECK_LT(consumer_shard, num_shards_);
  PIGGY_CHECK_NE(producer_shard, consumer_shard);
  if (!edges_.PutIfAbsent(EdgeKey(producer, consumer),
                          EdgeRec{mode, producer_shard, consumer_shard})) {
    return false;
  }
  if (mode == CrossEdgeMode::kPush) {
    ReplicaRec* replica = FindReplica(producer, consumer_shard);
    if (replica == nullptr) {
      // Materialize the replica: backfill the producer's newest events so
      // pre-follow shares appear in the consumer's feed (one state-transfer
      // message, like any batched update).
      const SeqSlots::SlotId slot = slots_->Add();
      slots_->Copy(producer, slot);
      std::vector<ReplicaRec>& replicas = GetOrCreate(replicas_, producer);
      auto pos = std::lower_bound(
          replicas.begin(), replicas.end(), consumer_shard,
          [](const ReplicaRec& r, uint32_t s) { return r.shard < s; });
      replica = &*replicas.insert(pos, ReplicaRec{consumer_shard, slot, 0});
      ++replica_count_;
      ++replicas_per_shard_[consumer_shard];
      update_messages_.Add();
      per_shard_update_messages_[consumer_shard].Add();
      replica_backfills_.Add();
    }
    ++replica->followers;  // a shard already replicating moves nothing
    GetOrCreate(push_sources_, consumer)
        .push_back(PushSource{producer, replica->slot});
  } else {
    const uint64_t source = EdgeKey(consumer, producer_shard);
    if (uint32_t* count = pull_source_count_.Find(source)) {
      ++*count;
    } else {
      pull_source_count_.Put(source, 1);
      SortedInsert(GetOrCreate(pull_shards_, consumer), producer_shard);
    }
    GetOrCreate(pull_producers_, EdgeKey(consumer, producer_shard))
        .push_back(producer);
  }
  return true;
}

bool CrossShardIndex::RemoveEdge(NodeId producer, NodeId consumer) {
  const EdgeRec* found = edges_.Find(EdgeKey(producer, consumer));
  if (found == nullptr) return false;
  const EdgeRec rec = *found;
  edges_.Erase(EdgeKey(producer, consumer));
  if (rec.mode == CrossEdgeMode::kPush) {
    ReplicaRec* replica = FindReplica(producer, rec.consumer_shard);
    PIGGY_CHECK(replica != nullptr);
    const ReplicaRec r = *replica;
    EraseValue(push_sources_, consumer, PushSource{producer, r.slot});
    if (--replica->followers == 0) {
      EraseValue(replicas_, producer, ReplicaRec{r.shard, r.slot, 0});
      slots_->Free(r.slot);
      --replica_count_;
      --replicas_per_shard_[rec.consumer_shard];
    }
  } else {
    const uint64_t source = EdgeKey(consumer, rec.producer_shard);
    uint32_t* count = pull_source_count_.Find(source);
    PIGGY_CHECK(count != nullptr);
    if (--*count == 0) {
      pull_source_count_.Erase(source);
      EraseValue(pull_shards_, consumer, rec.producer_shard);
    }
    EraseValue(pull_producers_, EdgeKey(consumer, rec.producer_shard), producer);
  }
  return true;
}

size_t CrossShardIndex::Publish(NodeId producer, uint64_t seq) {
  const std::vector<ReplicaRec>* replicas = replicas_.Find(producer);
  if (replicas == nullptr) return 0;
  for (const ReplicaRec& r : *replicas) {
    slots_->Insert(r.slot, seq);
    per_shard_update_messages_[r.shard].Add();
  }
  update_messages_.Add(replicas->size());
  return replicas->size();
}

std::span<const PushSource> CrossShardIndex::PushSources(
    NodeId consumer) const {
  const std::vector<PushSource>* v = push_sources_.Find(consumer);
  return v ? std::span<const PushSource>(*v) : std::span<const PushSource>();
}

std::span<const uint32_t> CrossShardIndex::PullShards(NodeId consumer) const {
  const std::vector<uint32_t>* v = pull_shards_.Find(consumer);
  return v ? std::span<const uint32_t>(*v) : std::span<const uint32_t>();
}

std::span<const NodeId> CrossShardIndex::PullProducers(NodeId consumer,
                                                       uint32_t shard) const {
  const std::vector<NodeId>* v = pull_producers_.Find(EdgeKey(consumer, shard));
  return v ? std::span<const NodeId>(*v) : std::span<const NodeId>();
}

double CrossShardIndex::PredictedCost(const Workload& w) const {
  double cost = 0;
  replicas_.ForEach([&](uint64_t producer, const std::vector<ReplicaRec>& shards) {
    cost += w.rp(static_cast<NodeId>(producer)) * static_cast<double>(shards.size());
  });
  pull_shards_.ForEach([&](uint64_t consumer, const std::vector<uint32_t>& shards) {
    cost += w.rc(static_cast<NodeId>(consumer)) * static_cast<double>(shards.size());
  });
  return cost;
}

}  // namespace piggy
