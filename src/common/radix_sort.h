#ifndef SWANDB_COMMON_RADIX_SORT_H_
#define SWANDB_COMMON_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace swan {

// Stable LSD radix sort of `*v`, ascending by the uint64_t `key(element)`.
// One histogram pass counts all eight key bytes; a byte on which every key
// agrees needs no scatter pass and is skipped, so dictionary ids below
// 2^24 sort in three linear passes. Stability lets callers order by a
// composite key minor-first: sorting by subject, then by property, leaves
// the elements ordered by (property, subject).
template <typename T, typename KeyFn>
void RadixSortBy(std::vector<T>* v, KeyFn key) {
  const size_t n = v->size();
  if (n < 2) return;
  std::array<std::array<size_t, 256>, 8> slots{};
  for (const T& e : *v) {
    const uint64_t k = key(e);
    for (int b = 0; b < 8; ++b) ++slots[b][(k >> (8 * b)) & 0xff];
  }
  std::vector<T> scratch;
  for (int b = 0; b < 8; ++b) {
    const int shift = 8 * b;
    std::array<size_t, 256>& slot = slots[b];
    if (slot[(key((*v)[0]) >> shift) & 0xff] == n) continue;
    size_t offset = 0;
    for (size_t& s : slot) {
      const size_t count = s;
      s = offset;
      offset += count;
    }
    scratch.resize(n);
    for (const T& e : *v) scratch[slot[(key(e) >> shift) & 0xff]++] = e;
    v->swap(scratch);
  }
}

}  // namespace swan

#endif  // SWANDB_COMMON_RADIX_SORT_H_
