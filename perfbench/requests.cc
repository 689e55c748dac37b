#include "requests.h"

#include <algorithm>
#include <cstdio>
#include <string_view>
#include <utility>

#include "common/random.h"

namespace swan::perfbench {

namespace {

const char* const kClasses[] = {"<Text>",    "<Date>",    "<class_2>",
                                "<class_3>", "<class_4>", "<class_5>"};
const char* const kLanguages[] = {
    "<language/iso639-2b/fre>", "<language/iso639-2b/code_1>",
    "<language/iso639-2b/code_2>", "<language/iso639-2b/code_3>"};
const char* const kOrigins[] = {"<info:marcorg/DLC>", "<info:marcorg/org_1>",
                                "<info:marcorg/org_2>"};
const char* const kEncodings[] = {"<encoding_0>", "<encoding_1>",
                                  "<encoding_2>", "<encoding_3>"};

template <size_t N>
const char* Pick(const char* const (&options)[N], Rng* rng) {
  return options[rng->Uniform(N)];
}

// The k-th constant of a template's cycle through `options`.
template <size_t N>
const char* Cycle(const char* const (&options)[N], uint64_t k) {
  return options[k % N];
}

constexpr int kTemplates = 11;

// Every kWriteEvery-th request of a store is a write; of its reads, every
// second one repeats an earlier read. A fixed cadence keeps the write and
// repeat shares, and with them the cache hit ratio, from drifting with
// the seed.
constexpr uint64_t kWriteEvery = 10;

// Templates whose first pattern binds a constant subject, so they touch
// a few keys instead of scanning property extents: A.subject, B.chain,
// B.chain_optional, B.two_hop, C.object (the case labels in Read).
constexpr bool kAnchored[kTemplates] = {false, false, false, true,
                                        false, false, true,  true,
                                        true,  true,  false};

// Per store: whether its engine supports deletes. The row engine's
// B+trees have no structural delete, so row_pso_small gets inserts only.
constexpr bool kDeletes[kMixedStores] = {true, false};
// Per store: serve only the anchored templates. row_pso_small is far
// larger than its buffer pool and spends tens of milliseconds on every
// extent scan; a few of them would set the whole run.
constexpr bool kAnchoredOnly[kMixedStores] = {false, true};

// Triples of the generated data, indexed by the properties the templates
// anchor on.
struct Anchors {
  uint64_t type = 0, records = 0, language = 0, origin = 0, encoding = 0,
           point = 0;
  std::vector<size_t> records_rows;  // triples with property <records>
  std::vector<size_t> shared_rows;   // <language>/<origin>/<Encoding>
};

uint64_t Intern(rdf::Dataset* dataset, std::string_view term) {
  return dataset->dict().Intern(term);
}

Anchors CollectAnchors(rdf::Dataset* dataset) {
  Anchors a;
  a.type = Intern(dataset, "<type>");
  a.records = Intern(dataset, "<records>");
  a.language = Intern(dataset, "<language>");
  a.origin = Intern(dataset, "<origin>");
  a.encoding = Intern(dataset, "<Encoding>");
  a.point = Intern(dataset, "<Point>");
  const std::vector<rdf::Triple>& triples = dataset->triples();
  for (size_t i = 0; i < triples.size(); ++i) {
    const uint64_t p = triples[i].property;
    if (p == a.records) a.records_rows.push_back(i);
    if (p == a.language || p == a.origin || p == a.encoding) {
      a.shared_rows.push_back(i);
    }
  }
  return a;
}

class Generator {
 public:
  Generator(rdf::Dataset* dataset, uint64_t seed)
      : dataset_(dataset),
        rng_(seed),
        anchors_(CollectAnchors(dataset)),
        history_(kMixedStores),
        live_inserts_(kMixedStores),
        fresh_subjects_(kMixedStores),
        served_(kMixedStores, 0),
        reads_(kMixedStores, 0),
        mix_(kMixedStores) {}

  std::vector<MixedRequest> Run(size_t count, MixShares* shares) {
    shares->by_store.assign(kMixedStores, 0);
    std::vector<MixedRequest> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      MixedRequest r;
      r.store = static_cast<int>(i % kMixedStores);
      const uint64_t nth = served_[r.store]++;
      r.session = static_cast<int>(nth % kSessionsPerStore);
      if (nth % kWriteEvery == kWriteEvery - 1) {
        Write(&r);
        ++(r.kind == MixedRequest::Kind::kInsert ? shares->inserts
                                                 : shares->deletes);
      } else {
        Read(&r, out);
        ++shares->reads;
        if (r.repeat) ++shares->repeats;
        if (r.limit) ++shares->limited;
        ++shares->by_shape[r.shape];
        if (!r.repeat) history_[r.store].push_back(out.size());
      }
      ++shares->by_store[r.store];
      out.push_back(std::move(r));
    }
    return out;
  }

 private:
  std::string Term(uint64_t id) const {
    return std::string(dataset_->dict().Lookup(id));
  }
  const rdf::Triple& RandomTriple(const std::vector<size_t>& rows) {
    const std::vector<rdf::Triple>& triples = dataset_->triples();
    if (rows.empty()) return triples[rng_.Uniform(triples.size())];
    return triples[rows[rng_.Uniform(rows.size())]];
  }
  std::string AnySubject() {
    return Term(RandomTriple(no_rows_).subject);
  }

  void Write(MixedRequest* r) {
    std::vector<rdf::Triple>& live = live_inserts_[r->store];
    if (kDeletes[r->store] && !live.empty() &&
        rng_.Chance(0.5)) {
      const size_t k = rng_.Uniform(live.size());
      r->kind = MixedRequest::Kind::kDelete;
      r->triple = live[k];
      live[k] = live.back();
      live.pop_back();
      return;
    }
    // Each new subject gets up to three triples under distinct properties,
    // so stars over the new data can match. A (subject, property) pair is
    // used once, so no insert repeats a triple.
    if (fresh_arms_ == 0) {
      fresh_subject_ = Intern(dataset_, "<perfbench_new_" +
                                            std::to_string(next_fresh_++) +
                                            ">");
      fresh_arms_ = 3;
      arm_offset_ = rng_.Uniform(6);
    }
    const uint64_t arm = (arm_offset_ + 3 - fresh_arms_) % 6;
    --fresh_arms_;
    uint64_t p = 0;
    std::string object;
    switch (arm) {
      case 0:
        p = anchors_.type;
        object = Pick(kClasses, &rng_);
        break;
      case 1:
        p = anchors_.language;
        object = Pick(kLanguages, &rng_);
        break;
      case 2:
        p = anchors_.origin;
        object = Pick(kOrigins, &rng_);
        break;
      case 3:
        p = anchors_.encoding;
        object = Pick(kEncodings, &rng_);
        break;
      case 4:
        p = anchors_.point;
        object = rng_.Chance(0.5) ? "\"end\"" : "\"start\"";
        break;
      default:
        p = anchors_.records;
        object = AnySubject();
        break;
    }
    r->kind = MixedRequest::Kind::kInsert;
    r->triple = rdf::Triple{fresh_subject_, p, Intern(dataset_, object)};
    live.push_back(r->triple);
    std::vector<uint64_t>& fresh = fresh_subjects_[r->store];
    if (fresh.empty() || fresh.back() != fresh_subject_) {
      fresh.push_back(fresh_subject_);
    }
  }

  void Read(MixedRequest* r, const std::vector<MixedRequest>& earlier) {
    r->kind = MixedRequest::Kind::kRead;
    const std::vector<size_t>& history = history_[r->store];
    const bool repeat = reads_[r->store]++ % 2 == 1;
    if (repeat && !history.empty()) {
      // Zipf over recency: recent queries are the popular ones, so the
      // repeated set follows the template mix instead of being fixed by
      // the first few draws of the seed.
      const ZipfSampler zipf(history.size(), 1.0);
      const MixedRequest& prior =
          earlier[history[history.size() - 1 - zipf.Sample(&rng_)]];
      r->text = prior.text;
      r->shape = prior.shape;
      r->limit = prior.limit;
      r->full_text = prior.full_text;
      r->repeat = true;
      return;
    }
    // Per store, each template cycles through its constants, and each
    // block of new reads uses every template the store serves once, in a
    // seeded order, so the make-up of each store's mix does not drift
    // with the seed.
    TemplateMix& mix = mix_[r->store];
    if (mix.pos == mix.block.size()) {
      mix.block.clear();
      for (int t = 0; t < kTemplates; ++t) {
        if (kAnchored[t] || !kAnchoredOnly[r->store]) {
          mix.block.push_back(t);
        }
      }
      for (size_t t = mix.block.size() - 1; t > 0; --t) {
        std::swap(mix.block[t], mix.block[rng_.Uniform(t + 1)]);
      }
      mix.pos = 0;
    }
    const int shape = mix.block[mix.pos++];
    const uint64_t k = mix.uses[shape]++;
    const char* cls = Cycle(kClasses, k);
    const char* lang = Cycle(kLanguages, k / 6);
    const char* origin = Cycle(kOrigins, k / 2);
    const uint64_t limits[] = {10, 50, 200};
    std::optional<uint64_t> limit;
    std::string where;
    std::string select;
    switch (shape) {
      case 0:  // A: two-arm star
        r->shape = "A.star2";
        select = "SELECT ?s";
        where = std::string("?s <type> ") + cls + " . ?s <language> " + lang;
        break;
      case 1:  // A: three-arm star under LIMIT
        r->shape = "A.star3_limit";
        select = "SELECT ?s ?l ?e";
        where = std::string("?s <type> ") + cls +
                " . ?s <language> ?l . ?s <Encoding> ?e";
        limit = limits[k % 3];
        break;
      case 2:  // A: star with a FILTER
        r->shape = "A.star_filter";
        select = "SELECT ?s ?o";
        where = std::string("?s <origin> ?o . ?s <type> ") + cls +
                " . FILTER(?o != " + origin + ")";
        break;
      case 3: {  // A: all properties of one subject (new data included)
        r->shape = "A.subject";
        const std::vector<uint64_t>& fresh = fresh_subjects_[r->store];
        const std::string subject =
            !fresh.empty() && rng_.Chance(0.3)
                ? Term(fresh[fresh.size() - 1 - rng_.Uniform(
                                                   std::min<size_t>(
                                                       fresh.size(), 8))])
                : AnySubject();
        select = "SELECT ?p ?o";
        where = subject + " ?p ?o";
        break;
      }
      case 4:  // A: DISTINCT over a star
        r->shape = "A.distinct";
        select = "SELECT DISTINCT ?t";
        where = std::string("?s <type> ?t . ?s <language> ") + lang;
        break;
      case 5:  // A: UNION of two stars
        r->shape = "A.union";
        select = "SELECT ?s";
        where = std::string("{ ?s <origin> ") + origin +
                " . ?s <type> " + cls + " } UNION { ?s <language> " + lang +
                " . ?s <type> " + cls + " }";
        break;
      case 6: {  // B: chain from one record
        r->shape = "B.chain";
        select = "SELECT ?o ?t";
        where = Term(RandomTriple(anchors_.records_rows).subject) +
                " <records> ?o . ?o <type> ?t";
        break;
      }
      case 7: {  // B: chain with an OPTIONAL arm
        r->shape = "B.chain_optional";
        select = "SELECT ?o ?l";
        where = Term(RandomTriple(anchors_.records_rows).subject) +
                " <records> ?o . OPTIONAL { ?o <language> ?l }";
        break;
      }
      case 8: {  // B: two hops, unbound property on the second
        r->shape = "B.two_hop";
        select = "SELECT ?p ?v";
        where = Term(RandomTriple(anchors_.records_rows).subject) +
                " <records> ?o . ?o ?p ?v";
        break;
      }
      case 9: {  // C: subjects sharing an object with one subject
        r->shape = "C.object";
        const rdf::Triple& t = RandomTriple(anchors_.shared_rows);
        select = "SELECT ?s2";
        where = Term(t.subject) + " " + Term(t.property) + " ?o . ?s2 " +
                Term(t.property) + " ?o";
        limit = limits[k % 3];
        break;
      }
      default: {  // C: shared objects under any property (q8's shape)
        r->shape = "C.any_property";
        const rdf::Triple& t = RandomTriple(no_rows_);
        select = "SELECT ?s ?p";
        where = Term(t.subject) + " " + Term(t.property) + " ?o . ?s ?p ?o";
        break;
      }
    }
    r->full_text = select + " WHERE { " + where + " }";
    r->limit = limit;
    r->text = limit ? r->full_text + " LIMIT " + std::to_string(*limit)
                    : r->full_text;
  }

  rdf::Dataset* dataset_;
  Rng rng_;
  Anchors anchors_;
  const std::vector<size_t> no_rows_;
  std::vector<std::vector<size_t>> history_;  // per store: first reads
  std::vector<std::vector<rdf::Triple>> live_inserts_;
  std::vector<std::vector<uint64_t>> fresh_subjects_;
  struct TemplateMix {
    std::vector<int> block;  // template order of the current block
    size_t pos = 0;
    uint64_t uses[kTemplates] = {};
  };

  std::vector<uint64_t> served_;   // per store: requests so far
  std::vector<uint64_t> reads_;    // per store: reads so far
  std::vector<TemplateMix> mix_;  // per store
  uint64_t next_fresh_ = 0;
  uint64_t fresh_subject_ = 0;
  uint64_t fresh_arms_ = 0;
  uint64_t arm_offset_ = 0;
};

}  // namespace

std::vector<MixedRequest> GenerateRequests(rdf::Dataset* dataset,
                                           uint64_t seed, size_t count,
                                           MixShares* shares) {
  *shares = MixShares{};
  Generator generator(dataset, seed);
  return generator.Run(count, shares);
}

std::string Serialize(const std::vector<MixedRequest>& requests) {
  std::string out;
  for (const MixedRequest& r : requests) {
    out += "store=" + std::to_string(r.store) +
           " session=" + std::to_string(r.session) + " ";
    switch (r.kind) {
      case MixedRequest::Kind::kRead:
        out += "read shape=" + r.shape + " repeat=" +
               (r.repeat ? "1" : "0") + " text=" + r.text;
        break;
      case MixedRequest::Kind::kInsert:
      case MixedRequest::Kind::kDelete:
        out += r.kind == MixedRequest::Kind::kInsert ? "insert " : "delete ";
        out += std::to_string(r.triple.subject) + " " +
               std::to_string(r.triple.property) + " " +
               std::to_string(r.triple.object);
        break;
    }
    out += "\n";
  }
  return out;
}

std::string MixShares::Describe() const {
  const double total = static_cast<double>(reads + inserts + deletes);
  auto pct = [&](uint64_t n) {
    return total > 0 ? 100.0 * static_cast<double>(n) / total : 0.0;
  };
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "reads %.1f%% (repeats %.1f%% of all, LIMIT %.1f%%), "
                "inserts %.1f%%, deletes %.1f%%",
                pct(reads), pct(repeats), pct(limited), pct(inserts),
                pct(deletes));
  std::string out = buf;
  out += "; shapes:";
  for (const auto& [shape, n] : by_shape) {
    std::snprintf(buf, sizeof(buf), " %s=%.1f%%", shape.c_str(), pct(n));
    out += buf;
  }
  out += "; stores:";
  for (size_t i = 0; i < by_store.size(); ++i) {
    std::snprintf(buf, sizeof(buf), " %zu=%.1f%%", i, pct(by_store[i]));
    out += buf;
  }
  return out;
}

}  // namespace swan::perfbench
