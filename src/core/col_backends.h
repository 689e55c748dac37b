#ifndef SWANDB_CORE_COL_BACKENDS_H_
#define SWANDB_CORE_COL_BACKENDS_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "colstore/triple_table.h"
#include "colstore/vertical_table.h"
#include "core/backend.h"

namespace swan::core {

// "MonetDB triple SPO/PSO" of Tables 6/7: the triple-store scheme on the
// column engine. Plans are vectorized full-column operations; cold runs
// pay for reading every touched column in full, which is the column
// triple-store's characteristic cost (§4.3).
class ColTripleBackend : public BackendBase {
 public:
  ColTripleBackend(const rdf::Dataset& dataset, rdf::TripleOrder order,
                   storage::DiskConfig disk_config = {},
                   size_t pool_pages = 4096,
                   colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

  // Scale-out partition: this node's share of the dataset, over storage
  // owned by the topology (ids stay interned in the shared dictionary;
  // `dataset` still provides the dictionary for audits and vocabulary).
  ColTripleBackend(const rdf::Dataset& dataset, rdf::TripleOrder order,
                   storage::SimulatedDisk* disk, storage::BufferPool* pool,
                   std::vector<rdf::Triple> subset,
                   colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

  std::string name() const override;
  using Backend::Run;
  using Backend::Match;
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) override;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern,
      const exec::ExecContext& ectx) const override;
  Status Insert(const rdf::Triple& triple) override;
  Status Delete(const rdf::Triple& triple) override;
  void DropCaches() override;
  uint64_t disk_bytes() const override { return table_->disk_bytes(); }
  // Exact encoded payload vs the 8-bytes-per-value logical image.
  uint64_t stored_bytes() const { return table_->stored_bytes(); }
  uint64_t logical_bytes() const { return table_->logical_bytes(); }

  const colstore::TripleTable& table() const { return *table_; }
  uint64_t delta_size() const { return delta_.size(); }
  uint64_t merge_count() const { return merge_count_; }

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = pso_;
    hints.subject_indexed = !pso_;  // SPO order: subject-prefix probes
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override;

 private:
  colstore::PositionVector PropPositions(uint64_t property,
                                         const exec::ExecContext& ectx) const;
  // Sorted subjects of all triples matching (?, property, object).
  std::vector<uint64_t> SubjectsWithPropObj(
      uint64_t property, uint64_t object, const exec::ExecContext& ectx) const;

  QueryResult RunQ1(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;
  QueryResult RunQ2Family(QueryId id, const QueryContext& ctx,
                          const exec::ExecContext& ectx) const;
  QueryResult RunQ3Family(QueryId id, const QueryContext& ctx,
                          const exec::ExecContext& ectx) const;
  QueryResult RunQ5(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;
  QueryResult RunQ6Family(QueryId id, const QueryContext& ctx,
                          const exec::ExecContext& ectx) const;
  QueryResult RunQ7(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;
  QueryResult RunQ8(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;

  // True if the triple exists in the merged (base) columns.
  bool BaseContains(const rdf::Triple& triple) const;
  // Rebuilds the read-optimized columns from base + delta.
  void EnsureMerged();

  bool pso_;
  colstore::ColumnCodec codec_;
  // For audit id-range checks; the dataset outlives the backend (RdfStore
  // contract).
  const rdf::Dataset* dataset_ = nullptr;
  std::unique_ptr<colstore::TripleTable> table_;
  // Write store: inserts buffer here and merge before the next Run().
  std::vector<rdf::Triple> delta_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> delta_set_;
  // Deletes of base rows buffer here; applied at the next merge. A delete
  // of an unmerged insert cancels the delta entry directly instead.
  std::unordered_set<rdf::Triple, rdf::TripleHash> tombstones_;
  uint64_t merge_count_ = 0;
};

// "MonetDB vert. SO": the vertically-partitioned scheme on the column
// engine. Per-property merge joins on sorted subject columns; queries that
// do not bind the property iterate every partition — both the strength
// and the scalability weakness the paper studies.
class ColVerticalBackend : public BackendBase {
 public:
  explicit ColVerticalBackend(const rdf::Dataset& dataset,
                              storage::DiskConfig disk_config = {},
                              size_t pool_pages = 4096,
                              colstore::ColumnCodec codec =
                                  colstore::ColumnCodec::kRaw);

  // Scale-out partition over topology-owned storage (see
  // ColTripleBackend's subset constructor).
  ColVerticalBackend(const rdf::Dataset& dataset,
                     storage::SimulatedDisk* disk, storage::BufferPool* pool,
                     std::vector<rdf::Triple> subset,
                     colstore::ColumnCodec codec = colstore::ColumnCodec::kRaw);

  std::string name() const override;
  using Backend::Run;
  using Backend::Match;
  QueryResult Run(QueryId id, const QueryContext& ctx,
                  const exec::ExecContext& ectx) override;
  std::vector<rdf::Triple> Match(
      const rdf::TriplePattern& pattern,
      const exec::ExecContext& ectx) const override;
  MatchRuns MatchBatch(const rdf::TriplePattern& pattern,
                       rdf::TripleComponent slot,
                       std::span<const uint64_t> keys,
                       const exec::ExecContext& ectx) const override;
  void DropCaches() override;
  uint64_t disk_bytes() const override { return table_->disk_bytes(); }
  // Exact encoded payload vs the 8-bytes-per-value logical image.
  uint64_t stored_bytes() const { return table_->stored_bytes(); }
  uint64_t logical_bytes() const { return table_->logical_bytes(); }

  Status Insert(const rdf::Triple& triple) override;
  Status Delete(const rdf::Triple& triple) override;

  const colstore::VerticalTable& table() const { return *table_; }
  uint64_t partitions_created() const { return partitions_created_; }
  uint64_t merge_count() const { return merge_count_; }

  plan::AccessHints PlannerHints() const override {
    plan::AccessHints hints;
    hints.clustered_by_property = true;   // one partition per property
    hints.subject_indexed = true;         // partitions sorted by subject
    hints.property_fanout = true;         // unbound property = all partitions
    return hints;
  }

  audit::AuditReport Audit(audit::AuditLevel level) const override;

 private:
  // Sorted subjects of partition `property`'s rows whose object == o.
  std::vector<uint64_t> SubjectsWhereObjEq(
      uint64_t property, uint64_t object, const exec::ExecContext& ectx) const;
  // Property list a (possibly star) filtered query iterates.
  std::vector<uint64_t> PropertyList(QueryId id, const QueryContext& ctx) const;

  QueryResult RunQ1(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;
  QueryResult RunQ2Family(QueryId id, const QueryContext& ctx,
                          const exec::ExecContext& ectx) const;
  QueryResult RunQ3Family(QueryId id, const QueryContext& ctx,
                          const exec::ExecContext& ectx) const;
  QueryResult RunQ5(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;
  QueryResult RunQ6Family(QueryId id, const QueryContext& ctx,
                          const exec::ExecContext& ectx) const;
  QueryResult RunQ7(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;
  QueryResult RunQ8(const QueryContext& ctx,
                    const exec::ExecContext& ectx) const;

  // True if the triple exists in the merged (base) partitions.
  bool BaseContains(const rdf::Triple& triple) const;
  void EnsureMerged();

  colstore::ColumnCodec codec_;
  const rdf::Dataset* dataset_ = nullptr;
  std::unique_ptr<colstore::VerticalTable> table_;
  // Write store, per partition; merged before the next Run().
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
      delta_;
  std::unordered_set<rdf::Triple, rdf::TripleHash> delta_set_;
  // Deletes of base rows, applied when their partition is next rebuilt.
  std::unordered_set<rdf::Triple, rdf::TripleHash> tombstones_;
  uint64_t partitions_created_ = 0;
  uint64_t merge_count_ = 0;
};

}  // namespace swan::core

#endif  // SWANDB_CORE_COL_BACKENDS_H_
