// swan-lint-corpus-path: tools/bad_cost_snapshot.cc
// Seeded corpus for the cost-snapshot rule: a backend's disk() is the
// coordinator node's disk on a sharded store, so a cost bracket built on
// it misses the other nodes' I/O and all network time. Brackets take
// core::CostMeter readings; single reads go through the Backend virtuals.
#include "core/backend.h"
#include "core/cost_meter.h"

namespace corpus {

double HandRolledBracket(core::Backend& backend) {
  const double io_before = backend.disk()->clock().now();  // expect(cost-snapshot)
  const uint64_t bytes = backend.disk()->total_bytes_read();  // expect(cost-snapshot)
  const uint64_t seeks = backend.disk() -> total_seeks();  // expect(cost-snapshot)
  const uint64_t reads = backend.disk()->total_reads();  // expect(cost-snapshot)
  (void)bytes;
  (void)seeks;
  (void)reads;
  return backend.disk()->clock().now() - io_before;  // expect(cost-snapshot)
}

double MeteredBracket(core::Backend& backend, const exec::ExecContext& ectx) {
  const core::CostMeter before = core::CostMeter::Take(backend, ectx);
  backend.disk()->ResetStats();  // fine: not a cost read
  const uint64_t total = backend.TotalBytesRead();  // fine: aggregate
  (void)total;
  // swan-lint: allow(cost-snapshot)
  const uint64_t one_node = backend.disk()->total_bytes_read();
  (void)one_node;
  return (core::CostMeter::Take(backend, ectx) - before).real_seconds;
}

}  // namespace corpus
