#include "shard/sharded_backend.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/macros.h"
#include "core/col_backends.h"
#include "obs/trace.h"

namespace swan::shard {

namespace {

// Wire-format model: 8 bytes per id (one column value), 16 per keyed
// count or id pair, 24 per triple. Messages are one per gathered part.
constexpr uint64_t kBytesPerKey = 8;
constexpr uint64_t kBytesPerPair = 16;
constexpr uint64_t kBytesPerTriple = 24;

void SortUnique(std::vector<uint64_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

}  // namespace

// DistRouting over the backend's placement + network. Lives behind a
// unique_ptr so the const backend can hand out a usable routing surface
// (cost accounting, not query semantics).
class ShardedBackend::Routing : public core::DistRouting {
 public:
  explicit Routing(ShardedBackend* owner) : owner_(owner) {}

  int nodes() const override { return owner_->options_.nodes; }
  int HomeNode(uint64_t property) const override {
    return owner_->placement_.HomeNode(property);
  }
  double NetBandwidthBytesPerSec() const override {
    return owner_->options_.network.bandwidth_mb_per_s * 1e6;
  }
  double NetLatencySecondsPerMessage() const override {
    return owner_->options_.network.latency_ms_per_message * 1e-3;
  }
  int Coordinator() const override { return owner_->coordinator_; }
  void SetCoordinator(int node) override {
    SWAN_CHECK_MSG(node >= 0 && node < owner_->options_.nodes,
                   "coordinator out of range");
    owner_->coordinator_ = node;
  }
  void Ship(int src, int dst, uint64_t bytes, uint64_t messages,
            const exec::ExecContext& ectx) override {
    owner_->Ship(src, dst, bytes, messages, ectx);
  }

 private:
  ShardedBackend* owner_;
};

ShardedBackend::ShardedBackend(const rdf::Dataset& dataset,
                               ShardOptions options)
    : options_(options),
      dataset_(&dataset),
      placement_(dataset.triples(),
                 PlacementConfig{options.nodes, options.split_factor}) {
  SWAN_CHECK_MSG(options_.nodes >= 1, "sharded backend needs >= 1 node");
  net::TopologyConfig topo;
  topo.nodes = options_.nodes;
  topo.disk = options_.disk;
  topo.pool_pages = options_.pool_pages;
  topo.network = options_.network;
  topology_ = std::make_unique<net::Topology>(topo);

  // Split the dataset into per-node subsets (node order, stable within a
  // node: dataset order).
  std::vector<std::vector<rdf::Triple>> subsets(
      static_cast<size_t>(options_.nodes));
  for (const rdf::Triple& t : dataset.triples()) {
    subsets[static_cast<size_t>(placement_.NodeOf(t))].push_back(t);
  }
  inner_.reserve(subsets.size());
  for (int n = 0; n < options_.nodes; ++n) {
    auto& subset = subsets[static_cast<size_t>(n)];
    if (options_.vertical) {
      inner_.push_back(std::make_unique<core::ColVerticalBackend>(
          dataset, topology_->disk(n), topology_->pool(n), std::move(subset),
          options_.codec));
    } else {
      inner_.push_back(std::make_unique<core::ColTripleBackend>(
          dataset, options_.order, topology_->disk(n), topology_->pool(n),
          std::move(subset), options_.codec));
    }
  }
  routing_ = std::make_unique<Routing>(this);
}

ShardedBackend::~ShardedBackend() = default;

core::DistRouting* ShardedBackend::dist() const { return routing_.get(); }

std::string ShardedBackend::name() const {
  std::string engine = options_.vertical
                           ? std::string("vert. SO")
                           : std::string("triple ") + ToString(options_.order);
  return "Sharded " + engine + " x" + std::to_string(options_.nodes);
}

bool ShardedBackend::Supports(core::QueryId id) const {
  (void)id;
  return true;
}

plan::AccessHints ShardedBackend::PlannerHints() const {
  return inner_.front()->PlannerHints();
}

std::vector<int> ShardedBackend::AllNodes() const {
  std::vector<int> nodes(static_cast<size_t>(options_.nodes));
  for (int n = 0; n < options_.nodes; ++n) nodes[static_cast<size_t>(n)] = n;
  return nodes;
}

std::vector<int> ShardedBackend::NodesFor(uint64_t property) const {
  const int home = placement_.HomeNode(property);
  if (home >= 0) return {home};
  return AllNodes();
}

void ShardedBackend::Ship(int src, int dst, uint64_t bytes, uint64_t messages,
                          const exec::ExecContext& ectx) const {
  if (src == dst) return;
  obs::Span span(ectx.trace(), "net.ship");
  span.set_rows_in(bytes);
  topology_->network().Ship(src, dst, bytes, messages, ectx);
}

std::vector<uint64_t> ShardedBackend::LocalSubjectsOf(
    int node, uint64_t property, uint64_t object,
    const exec::ExecContext& ectx) const {
  rdf::TriplePattern pattern;
  pattern.property = property;
  pattern.object = object;
  std::vector<uint64_t> subjects;
  for (const rdf::Triple& t :
       inner_[static_cast<size_t>(node)]->Match(pattern, ectx)) {
    subjects.push_back(t.subject);
  }
  SortUnique(&subjects);
  return subjects;
}

std::vector<uint64_t> ShardedBackend::GatherSubjectFilter(
    uint64_t property, uint64_t object, const std::vector<int>& consumers,
    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.semijoin_filter");
  std::vector<uint64_t> keys;
  for (int holder : NodesFor(property)) {
    std::vector<uint64_t> local =
        LocalSubjectsOf(holder, property, object, ectx);
    // Broadcast the filter from its producer to every consumer.
    for (int consumer : consumers) {
      Ship(holder, consumer, kBytesPerKey * local.size(), 1, ectx);
    }
    keys.insert(keys.end(), local.begin(), local.end());
  }
  SortUnique(&keys);
  span.set_rows_out(keys.size());
  return keys;
}

core::QueryResult ShardedBackend::Run(core::QueryId id,
                                      const core::QueryContext& ctx,
                                      const exec::ExecContext& ectx) {
  switch (core::BaseOf(id)) {
    case core::QueryId::kQ1:
      return RunQ1(ctx, ectx);
    case core::QueryId::kQ2:
      return RunQ2Family(id, ctx, ectx);
    case core::QueryId::kQ3:
    case core::QueryId::kQ4:
      return RunQ3Family(id, ctx, ectx);
    case core::QueryId::kQ5:
      return RunQ5(ctx, ectx);
    case core::QueryId::kQ6:
      return RunQ6Family(id, ctx, ectx);
    case core::QueryId::kQ7:
      return RunQ7(ctx, ectx);
    case core::QueryId::kQ8:
      return RunQ8(ctx, ectx);
    default:
      SWAN_CHECK(false);
  }
  return {};
}

// q1: per-node partial counts of <type> objects, sum-merged at the
// coordinator — the canonical partition-local aggregate (scatter tokens,
// gather small partials).
core::QueryResult ShardedBackend::RunQ1(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q1");
  const core::Vocabulary& v = ctx.vocab();
  std::map<uint64_t, uint64_t> counts;
  for (int node : NodesFor(v.type)) {
    rdf::TriplePattern pattern;
    pattern.property = v.type;
    std::map<uint64_t, uint64_t> local;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(pattern, ectx)) {
      ++local[t.object];
    }
    Ship(node, coordinator_, kBytesPerPair * local.size(), 1, ectx);
    for (const auto& [obj, count] : local) counts[obj] += count;
  }
  core::QueryResult result;
  result.column_names = {"obj", "count"};
  for (const auto& [obj, count] : counts) result.rows.push_back({obj, count});
  span.set_rows_out(result.rows.size());
  return result;
}

// q2/q2*: ship the Text-typed subject set as a semi-join filter to every
// node, count local properties of filtered triples, sum-merge partials.
core::QueryResult ShardedBackend::RunQ2Family(
    core::QueryId id, const core::QueryContext& ctx,
    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q2");
  const core::Vocabulary& v = ctx.vocab();
  const bool filter = core::AppliesPropertyFilter(id, ctx);
  const std::vector<uint64_t> a_keys =
      GatherSubjectFilter(v.type, v.text, AllNodes(), ectx);
  const std::unordered_set<uint64_t> a(a_keys.begin(), a_keys.end());

  std::map<uint64_t, uint64_t> counts;
  for (int node = 0; node < options_.nodes; ++node) {
    std::map<uint64_t, uint64_t> local;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(rdf::TriplePattern{}, ectx)) {
      if (a.count(t.subject) == 0) continue;
      if (filter && !ctx.IsInteresting(t.property)) continue;
      ++local[t.property];
    }
    Ship(node, coordinator_, kBytesPerPair * local.size(), 1, ectx);
    for (const auto& [p, count] : local) counts[p] += count;
  }
  core::QueryResult result;
  result.column_names = {"prop", "count"};
  for (const auto& [p, count] : counts) result.rows.push_back({p, count});
  span.set_rows_out(result.rows.size());
  return result;
}

// q3/q4 (and stars): like q2 with (property, object) group keys; the
// HAVING count > 1 predicate only holds over the MERGED counts, so it is
// applied at the coordinator, never on a partial.
core::QueryResult ShardedBackend::RunQ3Family(
    core::QueryId id, const core::QueryContext& ctx,
    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q3");
  const core::Vocabulary& v = ctx.vocab();
  const bool filter = core::AppliesPropertyFilter(id, ctx);
  const bool q4 = core::BaseOf(id) == core::QueryId::kQ4;
  const std::vector<uint64_t> a_keys =
      GatherSubjectFilter(v.type, v.text, AllNodes(), ectx);
  const std::unordered_set<uint64_t> a(a_keys.begin(), a_keys.end());
  std::unordered_set<uint64_t> c;
  if (q4) {
    const std::vector<uint64_t> c_keys =
        GatherSubjectFilter(v.language, v.french, AllNodes(), ectx);
    c.insert(c_keys.begin(), c_keys.end());
  }

  std::map<std::pair<uint64_t, uint64_t>, uint64_t> counts;
  for (int node = 0; node < options_.nodes; ++node) {
    std::map<std::pair<uint64_t, uint64_t>, uint64_t> local;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(rdf::TriplePattern{}, ectx)) {
      if (a.count(t.subject) == 0) continue;
      if (q4 && c.count(t.subject) == 0) continue;
      if (filter && !ctx.IsInteresting(t.property)) continue;
      ++local[{t.property, t.object}];
    }
    Ship(node, coordinator_, kBytesPerTriple * local.size(), 1, ectx);
    for (const auto& [group, count] : local) counts[group] += count;
  }
  core::QueryResult result;
  result.column_names = {"prop", "obj", "count"};
  for (const auto& [group, count] : counts) {
    if (count > 1) result.rows.push_back({group.first, group.second, count});
  }
  span.set_rows_out(result.rows.size());
  return result;
}

// q5: the cross-partition join. DLC-origin records bindings live on
// <records>' nodes, the type table on <type>'s — the planner-style choice
// between shipping the full bindings to the type holders and shipping a
// compact semi-join filter (distinct join keys) is made from modeled
// network cost, and the losing strategy's bytes appear nowhere.
core::QueryResult ShardedBackend::RunQ5(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  const core::Vocabulary& v = ctx.vocab();
  const std::vector<int> rec_nodes = NodesFor(v.records);
  const std::vector<int> type_nodes = NodesFor(v.type);

  const std::vector<uint64_t> a_keys =
      GatherSubjectFilter(v.origin, v.dlc, rec_nodes, ectx);
  const std::unordered_set<uint64_t> a(a_keys.begin(), a_keys.end());

  // Bindings (b.subject, b.object) per records holder.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> bindings(
      static_cast<size_t>(options_.nodes));
  uint64_t total_bindings = 0;
  std::vector<uint64_t> join_keys;  // distinct b.object
  for (int node : rec_nodes) {
    rdf::TriplePattern pattern;
    pattern.property = v.records;
    for (const rdf::Triple& b :
         inner_[static_cast<size_t>(node)]->Match(pattern, ectx)) {
      if (a.count(b.subject) == 0) continue;
      bindings[static_cast<size_t>(node)].emplace_back(b.subject, b.object);
      join_keys.push_back(b.object);
    }
    total_bindings += bindings[static_cast<size_t>(node)].size();
  }
  SortUnique(&join_keys);
  const std::unordered_set<uint64_t> key_set(join_keys.begin(),
                                             join_keys.end());

  // Matching (subject, type-object) pairs at the type holders.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> matches(
      static_cast<size_t>(options_.nodes));
  uint64_t total_matches = 0;
  for (int node : type_nodes) {
    rdf::TriplePattern pattern;
    pattern.property = v.type;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(pattern, ectx)) {
      if (key_set.count(t.subject) == 0) continue;
      matches[static_cast<size_t>(node)].emplace_back(t.subject, t.object);
    }
    total_matches += matches[static_cast<size_t>(node)].size();
  }

  // Ship-mode decision on modeled cost. Bindings mode: every records
  // holder ships its full bindings to every type holder, results return
  // to the coordinator. Semi-join mode: holders ship only distinct join
  // keys, the type holders return matching pairs, and the bindings take
  // one hop straight to the coordinator for the final join.
  const double bw = options_.network.bandwidth_mb_per_s * 1e6;
  const double lat = options_.network.latency_ms_per_message * 1e-3;
  const auto model_cost = [&](uint64_t bytes, uint64_t msgs) {
    return static_cast<double>(bytes) / bw + static_cast<double>(msgs) * lat;
  };
  const uint64_t fanout = type_nodes.size();
  const double bindings_cost =
      model_cost(kBytesPerPair * total_bindings * fanout,
                 rec_nodes.size() * fanout) +
      model_cost(kBytesPerPair * total_matches, type_nodes.size());
  const double semijoin_cost =
      model_cost(kBytesPerKey * join_keys.size() * fanout,
                 rec_nodes.size() * fanout) +
      model_cost(kBytesPerPair * total_matches, type_nodes.size()) +
      model_cost(kBytesPerPair * total_bindings, rec_nodes.size());
  const bool semijoin = semijoin_cost <= bindings_cost;

  obs::Span span(ectx.trace(),
                 semijoin ? "shard.q5.semijoin" : "shard.q5.bindings");
  span.set_rows_in(total_bindings);
  for (int rn : rec_nodes) {
    const auto& local = bindings[static_cast<size_t>(rn)];
    uint64_t bytes_per_type_holder = kBytesPerPair * local.size();
    if (semijoin) {
      // The key set is global (already deduplicated across holders);
      // charge each holder its share of distinct keys.
      std::unordered_set<uint64_t> local_keys;
      for (const auto& binding : local) local_keys.insert(binding.second);
      bytes_per_type_holder = kBytesPerKey * local_keys.size();
    }
    for (int tn : type_nodes) Ship(rn, tn, bytes_per_type_holder, 1, ectx);
    if (semijoin) {
      Ship(rn, coordinator_, kBytesPerPair * local.size(), 1, ectx);
    }
  }
  for (int tn : type_nodes) {
    Ship(tn, coordinator_, kBytesPerPair * matches[static_cast<size_t>(tn)].size(),
         1, ectx);
  }

  // Final join at the coordinator: bindings x type pairs on b.object.
  std::unordered_multimap<uint64_t, uint64_t> types;
  for (int tn : type_nodes) {
    for (const auto& [s, o] : matches[static_cast<size_t>(tn)]) {
      types.emplace(s, o);
    }
  }
  core::QueryResult result;
  result.column_names = {"subj", "obj"};
  for (int rn : rec_nodes) {
    for (const auto& [subj, obj] : bindings[static_cast<size_t>(rn)]) {
      auto [lo, hi] = types.equal_range(obj);
      for (auto it = lo; it != hi; ++it) {
        if (it->second != v.text) result.rows.push_back({subj, it->second});
      }
    }
  }
  span.set_rows_out(result.rows.size());
  return result;
}

// q6/q6*: the union set (Text-typed subjects plus subjects recording a
// Text-typed object) is assembled from two shipped filters, then counted
// like q2.
core::QueryResult ShardedBackend::RunQ6Family(
    core::QueryId id, const core::QueryContext& ctx,
    const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q6");
  const core::Vocabulary& v = ctx.vocab();
  const bool filter = core::AppliesPropertyFilter(id, ctx);
  const std::vector<int> rec_nodes = NodesFor(v.records);

  // Consumers of the Text-typed set: the records holders (to test their
  // objects) and every node (final counting scan).
  const std::vector<uint64_t> a_keys =
      GatherSubjectFilter(v.type, v.text, AllNodes(), ectx);
  const std::unordered_set<uint64_t> text_typed(a_keys.begin(), a_keys.end());

  std::unordered_set<uint64_t> united = text_typed;
  for (int node : rec_nodes) {
    rdf::TriplePattern pattern;
    pattern.property = v.records;
    std::vector<uint64_t> local;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(pattern, ectx)) {
      if (text_typed.count(t.object) != 0) local.push_back(t.subject);
    }
    SortUnique(&local);
    // Broadcast the second filter leg to every counting node.
    for (int consumer = 0; consumer < options_.nodes; ++consumer) {
      Ship(node, consumer, kBytesPerKey * local.size(), 1, ectx);
    }
    united.insert(local.begin(), local.end());
  }

  std::map<uint64_t, uint64_t> counts;
  for (int node = 0; node < options_.nodes; ++node) {
    std::map<uint64_t, uint64_t> local;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(rdf::TriplePattern{}, ectx)) {
      if (united.count(t.subject) == 0) continue;
      if (filter && !ctx.IsInteresting(t.property)) continue;
      ++local[t.property];
    }
    Ship(node, coordinator_, kBytesPerPair * local.size(), 1, ectx);
    for (const auto& [p, count] : local) counts[p] += count;
  }
  core::QueryResult result;
  result.column_names = {"prop", "count"};
  for (const auto& [p, count] : counts) result.rows.push_back({p, count});
  span.set_rows_out(result.rows.size());
  return result;
}

// q7: three-way star on the subject — the Point/"end" subject filter
// ships to the <encoding> and <type> holders, whose matching pairs
// gather at the coordinator for the cross product.
core::QueryResult ShardedBackend::RunQ7(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q7");
  const core::Vocabulary& v = ctx.vocab();
  std::vector<int> consumers = NodesFor(v.encoding);
  for (int n : NodesFor(v.type)) consumers.push_back(n);
  std::sort(consumers.begin(), consumers.end());
  consumers.erase(std::unique(consumers.begin(), consumers.end()),
                  consumers.end());

  const std::vector<uint64_t> a_keys =
      GatherSubjectFilter(v.point, v.end, consumers, ectx);
  const std::unordered_set<uint64_t> a(a_keys.begin(), a_keys.end());

  const auto gather_pairs = [&](uint64_t property) {
    std::unordered_multimap<uint64_t, uint64_t> pairs;
    for (int node : NodesFor(property)) {
      rdf::TriplePattern pattern;
      pattern.property = property;
      uint64_t local = 0;
      for (const rdf::Triple& t :
           inner_[static_cast<size_t>(node)]->Match(pattern, ectx)) {
        if (a.count(t.subject) == 0) continue;
        pairs.emplace(t.subject, t.object);
        ++local;
      }
      Ship(node, coordinator_, kBytesPerPair * local, 1, ectx);
    }
    return pairs;
  };
  const auto encodings = gather_pairs(v.encoding);
  const auto types = gather_pairs(v.type);

  core::QueryResult result;
  result.column_names = {"subj", "encoding", "type"};
  for (uint64_t s : a_keys) {
    auto [be, ee] = encodings.equal_range(s);
    auto [bt, et] = types.equal_range(s);
    for (auto ie = be; ie != ee; ++ie) {
      for (auto it = bt; it != et; ++it) {
        result.rows.push_back({s, ie->second, it->second});
      }
    }
  }
  span.set_rows_out(result.rows.size());
  return result;
}

// q8: object-object join through the <conferences> subject. The probe
// side is subject-bound (scatters to every node — property partitions
// split a subject's triples), the build side's object set broadcasts as
// a filter.
core::QueryResult ShardedBackend::RunQ8(const core::QueryContext& ctx,
                                        const exec::ExecContext& ectx) const {
  obs::Span span(ectx.trace(), "shard.q8");
  const core::Vocabulary& v = ctx.vocab();

  std::vector<uint64_t> t_objects;
  for (int node = 0; node < options_.nodes; ++node) {
    rdf::TriplePattern pattern;
    pattern.subject = v.conferences;
    std::vector<uint64_t> local;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(pattern, ectx)) {
      local.push_back(t.object);
    }
    SortUnique(&local);
    Ship(node, coordinator_, kBytesPerKey * local.size(), 1, ectx);
    t_objects.insert(t_objects.end(), local.begin(), local.end());
  }
  SortUnique(&t_objects);
  const std::unordered_set<uint64_t> object_set(t_objects.begin(),
                                                t_objects.end());
  // Broadcast the build side to the probing nodes.
  for (int node = 0; node < options_.nodes; ++node) {
    Ship(coordinator_, node, kBytesPerKey * t_objects.size(), 1, ectx);
  }

  std::vector<uint64_t> subjects;
  for (int node = 0; node < options_.nodes; ++node) {
    std::vector<uint64_t> local;
    for (const rdf::Triple& t :
         inner_[static_cast<size_t>(node)]->Match(rdf::TriplePattern{}, ectx)) {
      if (t.subject != v.conferences && object_set.count(t.object) != 0) {
        local.push_back(t.subject);
      }
    }
    SortUnique(&local);
    Ship(node, coordinator_, kBytesPerKey * local.size(), 1, ectx);
    subjects.insert(subjects.end(), local.begin(), local.end());
  }
  SortUnique(&subjects);

  core::QueryResult result;
  result.column_names = {"subj"};
  for (uint64_t s : subjects) result.rows.push_back({s});
  span.set_rows_out(result.rows.size());
  return result;
}

std::vector<int> ShardedBackend::NodesForPattern(
    const rdf::TriplePattern& pattern) const {
  if (!pattern.property) return AllNodes();
  std::vector<int> nodes = NodesFor(*pattern.property);
  if (nodes.size() > 1 && pattern.subject) {
    // Sub-split property with a bound subject: one node holds it.
    return {placement_.SubjectNode(*pattern.subject)};
  }
  return nodes;
}

std::vector<rdf::Triple> ShardedBackend::Match(
    const rdf::TriplePattern& pattern, const exec::ExecContext& ectx) const {
  std::vector<rdf::Triple> out;
  for (int node : NodesForPattern(pattern)) {
    std::vector<rdf::Triple> part =
        inner_[static_cast<size_t>(node)]->Match(pattern, ectx);
    // Result-return leg only; the request leg is the caller's (see the
    // class comment).
    Ship(node, coordinator_, kBytesPerTriple * part.size(), 1, ectx);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

core::MatchRuns ShardedBackend::MatchBatch(
    const rdf::TriplePattern& pattern, rdf::TripleComponent slot,
    std::span<const uint64_t> keys, const exec::ExecContext& ectx) const {
  // Each key goes to the nodes Match would ask for it; every node answers
  // its share of the batch in one call and one result message.
  const size_t nodes = static_cast<size_t>(options_.nodes);
  std::vector<std::vector<uint64_t>> node_keys(nodes);
  std::vector<std::vector<size_t>> node_key_index(nodes);
  for (size_t k = 0; k < keys.size(); ++k) {
    for (int node : NodesForPattern(core::WithSlot(pattern, slot, keys[k]))) {
      node_keys[static_cast<size_t>(node)].push_back(keys[k]);
      node_key_index[static_cast<size_t>(node)].push_back(k);
    }
  }
  std::vector<core::MatchRuns> parts(nodes);
  for (size_t node = 0; node < nodes; ++node) {
    if (node_keys[node].empty()) continue;
    parts[node] =
        inner_[node]->MatchBatch(pattern, slot, node_keys[node], ectx);
    Ship(static_cast<int>(node), coordinator_,
         kBytesPerTriple * parts[node].triples.size(), 1, ectx);
  }
  // A key's run is its nodes' runs in node order, as Match concatenates.
  core::MatchRuns runs;
  std::vector<size_t> next(nodes, 0);
  for (size_t k = 0; k < keys.size(); ++k) {
    for (size_t node = 0; node < nodes; ++node) {
      const std::vector<size_t>& owned = node_key_index[node];
      if (next[node] == owned.size() || owned[next[node]] != k) continue;
      const auto run = parts[node].Run(next[node]++);
      runs.triples.insert(runs.triples.end(), run.begin(), run.end());
    }
    runs.EndRun();
  }
  return runs;
}

Status ShardedBackend::Insert(const rdf::Triple& triple) {
  const int node = placement_.NodeOf(triple);
  Ship(coordinator_, node, kBytesPerTriple, 1, write_ectx_);
  return inner_[static_cast<size_t>(node)]->Insert(triple);
}

Status ShardedBackend::Delete(const rdf::Triple& triple) {
  const int node = placement_.NodeOf(triple);
  Ship(coordinator_, node, kBytesPerTriple, 1, write_ectx_);
  return inner_[static_cast<size_t>(node)]->Delete(triple);
}

void ShardedBackend::DropCaches() {
  for (auto& backend : inner_) backend->DropCaches();
}

storage::SimulatedDisk* ShardedBackend::disk() {
  return topology_->disk(coordinator_);
}
const storage::SimulatedDisk* ShardedBackend::disk() const {
  return topology_->disk(coordinator_);
}
const storage::BufferPool* ShardedBackend::buffer_pool() const {
  return topology_->pool(coordinator_);
}

uint64_t ShardedBackend::disk_bytes() const {
  uint64_t total = 0;
  for (const auto& backend : inner_) total += backend->disk_bytes();
  return total;
}

double ShardedBackend::VirtualSeconds() const {
  return topology_->VirtualNow();
}
uint64_t ShardedBackend::TotalBytesRead() const {
  return topology_->TotalBytesRead();
}
uint64_t ShardedBackend::TotalReads() const { return topology_->TotalReads(); }
uint64_t ShardedBackend::TotalSeeks() const { return topology_->TotalSeeks(); }
std::vector<double> ShardedBackend::LaneSecondsSnapshot() const {
  return topology_->LaneSecondsSnapshot();
}
uint64_t ShardedBackend::TotalNetBytes() const {
  return topology_->network().total_bytes();
}
uint64_t ShardedBackend::TotalNetMessages() const {
  return topology_->network().total_messages();
}
double ShardedBackend::NetSeconds() const {
  return topology_->network().seconds();
}

audit::AuditReport ShardedBackend::Audit(audit::AuditLevel level) const {
  audit::AuditReport report;
  for (const auto& backend : inner_) report.Merge(backend->Audit(level));
  return report;
}

}  // namespace swan::shard
