// Self-test of the sparql_mixed request generator: one seed yields a
// byte-identical request list, two data seeds differ, two stream seeds
// over the same data differ, and the drawn writes
// are valid for the stores they target (no repeated insert, deletes only
// of triples inserted earlier into the same store and never on a store
// without deletes; an anchored-only store gets anchored templates only).
// Exit code 0 on success.

#include <cstdio>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support/barton_generator.h"
#include "requests.h"

namespace {

using swan::perfbench::MixedRequest;
using swan::perfbench::MixShares;

constexpr size_t kCount = 4000;

std::string StreamFor(uint64_t data_seed, uint64_t stream_seed,
                      MixShares* shares,
                      std::vector<MixedRequest>* requests = nullptr) {
  swan::bench_support::BartonConfig config;
  config.target_triples = 20000;
  config.seed = data_seed;
  auto barton = swan::bench_support::GenerateBarton(config);
  std::vector<MixedRequest> stream = swan::perfbench::GenerateRequests(
      &barton.dataset, stream_seed, kCount, shares);
  const std::string text = swan::perfbench::Serialize(stream);
  if (requests != nullptr) *requests = std::move(stream);
  return text;
}

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  MixShares a_shares, b_shares, c_shares, d_shares;
  std::vector<MixedRequest> a_requests;
  const std::string a = StreamFor(7, 7, &a_shares, &a_requests);
  const std::string b = StreamFor(7, 7, &b_shares);
  const std::string c = StreamFor(8, 8, &c_shares);
  // The benchmark's set-ups share one dataset and differ only in the
  // stream seed, so that seed alone must change the stream.
  const std::string d = StreamFor(7, 8, &d_shares);
  Expect(!a.empty(), "stream is non-empty");
  Expect(a == b, "one seed yields a byte-identical request list");
  Expect(a != c, "two seeds yield different request lists");
  Expect(a != d, "two stream seeds over one dataset yield different lists");

  const double total = static_cast<double>(kCount);
  const double writes =
      static_cast<double>(a_shares.inserts + a_shares.deletes) / total;
  const double repeats = static_cast<double>(a_shares.repeats) /
                         static_cast<double>(a_shares.reads);
  Expect(writes > 0.07 && writes < 0.13, "about 10% of requests write");
  Expect(repeats > 0.4 && repeats < 0.6, "about half of the reads repeat");
  Expect(a_shares.deletes > 0, "the stream deletes on the delete store");

  using Key = std::tuple<int, uint64_t, uint64_t, uint64_t>;
  std::set<Key> inserted, live;
  for (const MixedRequest& r : a_requests) {
    const Key key{r.store, r.triple.subject, r.triple.property,
                  r.triple.object};
    if (r.kind == MixedRequest::Kind::kInsert) {
      Expect(inserted.insert(key).second, "no triple is inserted twice");
      live.insert(key);
    } else if (r.kind == MixedRequest::Kind::kDelete) {
      Expect(r.store == 0, "deletes only on the store that supports them");
      Expect(live.erase(key) == 1, "deletes only a live inserted triple");
    } else {
      Expect(!r.text.empty() && !r.shape.empty(), "reads carry text");
      const std::set<std::string> anchored = {
          "A.subject", "B.chain", "B.chain_optional", "B.two_hop",
          "C.object"};
      Expect(r.store == 0 || anchored.count(r.shape) == 1,
             "the anchored-only store serves anchored templates only");
      Expect(r.limit.has_value() == (r.text != r.full_text),
             "LIMIT reads keep the unlimited text for the oracle");
    }
  }

  std::printf("mix: %s\n", a_shares.Describe().c_str());
  std::printf("%s\n", failures == 0 ? "perfbench self-test passed"
                                    : "perfbench self-test FAILED");
  return failures == 0 ? 0 : 1;
}
