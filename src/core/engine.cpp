#include "src/core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(_OPENMP)
#include <omp.h>
#endif

#include "src/util/error.hpp"

namespace miniphi::core {
namespace {

/// 64-bit finalizer (splitmix64) for repeat-class pair keys.
inline std::uint64_t mix64(std::uint64_t key) {
  key += 0x9e3779b97f4a7c15ULL;
  key = (key ^ (key >> 30)) * 0xbf58476d1ce4e5b9ULL;
  key = (key ^ (key >> 27)) * 0x94d049bb133111ebULL;
  return key ^ (key >> 31);
}

inline std::size_t next_pow2(std::size_t value) {
  std::size_t result = 1;
  while (result < value) result <<= 1;
  return result;
}

/// Calls fn(left_row, right_row) with each child's per-site classes typed
/// as stored — a tip's DnaCode row or an inner slot's uint32 map — so each
/// dedup loop compiles once per child-kind combination.
template <typename Fn>
std::int64_t with_class_rows(const bio::DnaCode* left_codes, const std::uint32_t* left_map,
                             const bio::DnaCode* right_codes, const std::uint32_t* right_map,
                             Fn&& fn) {
  if (left_codes != nullptr) {
    return right_codes != nullptr ? fn(left_codes, right_codes) : fn(left_codes, right_map);
  }
  return right_codes != nullptr ? fn(left_map, right_codes) : fn(left_map, right_map);
}

/// Direct-indexed dedup of the pairs (left[s], right[s]): table[lc·uR + rc]
/// holds class + 1, 0 for a pair not seen yet.  Writes each site's class
/// and each new class's pair, then zeroes the table through those pairs.
/// Returns the class count, or -1 once a class past `max_classes` appears.
template <typename L, typename R>
std::int64_t dedup_direct(const L* left, const R* right, std::int64_t length,
                          std::uint32_t right_count, std::uint32_t max_classes,
                          std::uint32_t* table, std::uint32_t* classes,
                          std::uint32_t* class_left, std::uint32_t* class_right) {
  std::uint32_t unique = 0;
  bool identity = false;
  for (std::int64_t s = 0; s < length; ++s) {
    const std::uint32_t lc = left[s];
    const std::uint32_t rc = right[s];
    std::uint32_t& entry = table[static_cast<std::size_t>(lc) * right_count + rc];
    if (entry == 0) {
      if (unique == max_classes) {  // past the cutoff: the slot runs site-indexed
        identity = true;
        break;
      }
      class_left[unique] = lc;
      class_right[unique] = rc;
      entry = ++unique;  // class ids in first-appearance order: deterministic
    }
    classes[s] = entry - 1;
  }
  for (std::uint32_t c = 0; c < unique; ++c) {
    table[static_cast<std::size_t>(class_left[c]) * right_count + class_right[c]] = 0;
  }
  return identity ? -1 : static_cast<std::int64_t>(unique);
}

/// The same dedup through an open-addressing table with epoch stamps: one
/// epoch per build, so the table is never cleared.
template <typename L, typename R, typename Entry>
std::int64_t dedup_hashed(const L* left, const R* right, std::int64_t length,
                          std::uint32_t max_classes, Entry* table, std::size_t mask,
                          std::uint32_t epoch, std::uint32_t* classes,
                          std::uint32_t* class_left, std::uint32_t* class_right) {
  std::uint32_t unique = 0;
  for (std::int64_t s = 0; s < length; ++s) {
    const std::uint32_t lc = left[s];
    const std::uint32_t rc = right[s];
    const std::uint64_t key = (static_cast<std::uint64_t>(lc) << 32) | rc;
    std::size_t probe = static_cast<std::size_t>(mix64(key)) & mask;
    for (;;) {
      Entry& entry = table[probe];
      if (entry.epoch != epoch) {
        if (unique == max_classes) return -1;
        entry.key = key;
        entry.cls = unique;
        entry.epoch = epoch;
        class_left[unique] = lc;
        class_right[unique] = rc;
        classes[s] = unique;
        ++unique;
        break;
      }
      if (entry.key == key) {
        classes[s] = entry.cls;
        break;
      }
      probe = (probe + 1) & mask;
    }
  }
  return unique;
}

}  // namespace

LikelihoodEngine::LikelihoodEngine(const bio::PatternSet& patterns,
                                   const model::GtrModel& model, tree::Tree& tree,
                                   const Config& config)
    : EngineFamily(tree),
      patterns_(patterns),
      model_(model),
      tree_(tree),
      ops_(get_kernel_ops(config.isa)),
      tuning_(config.tuning),
      use_openmp_(config.use_openmp) {
  const auto npat = static_cast<std::int64_t>(patterns.pattern_count());
  MINIPHI_CHECK(npat > 0, "engine: empty pattern set");
  MINIPHI_CHECK(static_cast<std::size_t>(tree.taxon_count()) == patterns.taxon_count(),
                "engine: tree and patterns disagree on taxon count");
  offset_ = config.begin;
  length_ = (config.end < 0 ? npat : config.end) - offset_;
  MINIPHI_CHECK(offset_ >= 0 && length_ > 0 && offset_ + length_ <= npat,
                "engine: invalid pattern slice");
  core_.configure(config, length_, kSiteBlock, "engine");

  site_repeats_ = config.site_repeats;
  if (site_repeats_) {
    MINIPHI_CHECK(length_ <= std::numeric_limits<std::uint32_t>::max(),
                  "engine: site_repeats needs 32-bit class ids; slice too wide");
    repeats_.resize(3 * static_cast<std::size_t>(tree.inner_count()));
    max_classes_ = static_cast<std::int64_t>(kIdentityFraction * static_cast<double>(length_));
    // The dedup tables are sized on first use: a build stops at
    // max_classes_ classes, and only spans it actually meets touch pages.
    build_left_.resize(static_cast<std::size_t>(max_classes_));
    build_right_.resize(static_cast<std::size_t>(max_classes_));
    direct_span_ = std::min<std::uint64_t>(
        kDirectSpan, kDirectSpanPerSite * static_cast<std::uint64_t>(length_));
    leaf_words_ = (static_cast<std::size_t>(tree.taxon_count()) + 63) / 64;
    leaf_sets_.resize(repeats_.size() * leaf_words_);
    if (core_.metrics()) map_metric_ids_ = register_repeat_map_metrics();
    identity_gather_.resize(static_cast<std::size_t>(length_));
    for (std::int64_t s = 0; s < length_; ++s) {
      identity_gather_[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(s);
    }
  }

  ptable_left_.resize(kPtableSize);
  ptable_right_.resize(kPtableSize);
  ump_left_.resize(kUmpSize);
  ump_right_.resize(kUmpSize);
  diag_.resize(kDiagSize);
  evtab_.resize(kEvtabSize);
  dtab_.resize(kDtabSize);
  sum_buffer_.resize(static_cast<std::size_t>(length_) * kSiteBlock);
  slab_sum_.resize(static_cast<std::size_t>(std::min(length_, kSdcChunkSites)) * kSiteBlock);

  core_.register_kernel_metrics(ops_.isa, site_repeats_ ? "repeats" : "dense", "preorder");
  set_model(model);
}

void LikelihoodEngine::set_model(const model::GtrModel& model) {
  model_ = model;
  tipvec16_ = build_tipvec16(model_);
  wtable_ = build_wtable(model_);
  // Repeat classes are a pure function of topology and tip states, so
  // α/GTR optimization recomputes only the unique classes.
  core_.invalidate_all();
}

void LikelihoodEngine::set_alpha(double alpha) {
  model::GtrParams params = model_.params();
  params.alpha = alpha;
  set_model(model::GtrModel(params, model_.gamma_categories()));
}

void LikelihoodEngine::fold_checksum(sdc::ClaChecksum& sum, const double* values,
                                     const std::int32_t* scales, std::int64_t begin,
                                     std::int64_t end) {
  // Lane-structured, via the ISA-matched KernelOps::cla_checksum back-end.
  ops_.cla_checksum(sum, values, scales, begin, end);
}

ChildInput LikelihoodEngine::make_child_input(tree::Slot* child, std::span<double> ptable,
                                              std::span<double> ump, double branch_length,
                                              bool verify) {
  build_ptable(model_, branch_length, ptable);
  ChildInput input;
  input.ptable = ptable.data();
  if (child->is_tip()) {
    build_ump(model_, ptable, ump);
    input.codes = patterns_.tip_rows[static_cast<std::size_t>(child->node_id)].data() + offset_;
    input.ump = ump.data();
  } else {
    core_.resident_input(child, verify);
    input.cla = core_.values(child->node_id);
    input.scale = core_.scales(child->node_id);
  }
  return input;
}

std::uint64_t LikelihoodEngine::repeat_signature(const tree::Slot* child) const {
  if (child->is_tip()) {
    // Tip data never changes: a constant per-taxon tag (high bit keeps tip
    // tags disjoint from the inner versions and the identity signature).
    return 0x8000000000000000ULL | static_cast<std::uint64_t>(child->node_id);
  }
  const SlotRepeats& rep = repeats_of(child);
  MINIPHI_ASSERT(rep.unique > 0);  // a valid child CLA was built through its record
  return rep.signature;
}

const LikelihoodEngine::SlotRepeats& LikelihoodEngine::ensure_repeat_classes(tree::Slot* slot) {
  SlotRepeats& rep = repeats_of(slot);
  tree::Slot* left = slot->child1();
  tree::Slot* right = slot->child2();
  const std::uint64_t lsig = repeat_signature(left);
  const std::uint64_t rsig = repeat_signature(right);
  if (rep.unique > 0 && rep.left_seen == lsig && rep.right_seen == rsig) {
    return rep;  // nothing changed below this slot: full reuse
  }
  Timer timer;
  ++map_stats_.builds;
  rep.left_seen = lsig;
  rep.right_seen = rsig;
  std::int64_t unique = -1;  // identity unless the dedup stays under the cutoff
  bool by_subset = false;
  bool direct = false;
  bool hashed = false;
  if (lsig != kIdentitySignature && rsig != kIdentitySignature) {
    build_leaf_set(slot);
    by_subset = holds_identity_set(slot);
    if (!by_subset) {
      unique = dedup_classes(left, right, direct);
      hashed = !direct;
      if (unique < 0) add_identity_set(slot);
    }
  }
  if (unique < 0) {
    rep.unique = length_;
    rep.signature = kIdentitySignature;
    std::vector<std::uint32_t>().swap(rep.class_of_site);
    std::vector<std::uint32_t>().swap(rep.left);
    std::vector<std::uint32_t>().swap(rep.right);
  } else {
    rep.class_of_site.swap(build_classes_);
    rep.left.assign(build_left_.begin(), build_left_.begin() + unique);
    rep.right.assign(build_right_.begin(), build_right_.begin() + unique);
    rep.unique = unique;
    rep.signature = ++repeat_version_counter_;  // parents must rebuild against us
  }
  const std::int64_t ns = timer.nanoseconds();
  map_stats_.identity_by_subset += by_subset ? 1 : 0;
  if (direct) {
    ++map_stats_.direct;
    map_stats_.direct_ns += ns;
  }
  if (hashed) {
    ++map_stats_.hashed;
    map_stats_.hashed_ns += ns;
  }
  if (core_.metrics()) publish_repeat_map_build(map_metric_ids_, direct, hashed, by_subset, ns);
  return rep;
}

std::int64_t LikelihoodEngine::dedup_classes(const tree::Slot* left, const tree::Slot* right,
                                             bool& direct) {
  // A site's class is the deduplicated pair (left class, right class), with
  // tip codes standing in for tip children — the LvD subtree-pattern
  // identity.  Children's records are current: newview runs bottom-up and
  // checks each record on use.
  const bio::DnaCode* left_codes = nullptr;
  const std::uint32_t* left_map = nullptr;
  const bio::DnaCode* right_codes = nullptr;
  const std::uint32_t* right_map = nullptr;
  std::uint32_t left_count = kTipClasses;
  std::uint32_t right_count = kTipClasses;
  if (left->is_tip()) {
    left_codes = patterns_.tip_rows[static_cast<std::size_t>(left->node_id)].data() + offset_;
  } else {
    left_map = repeats_of(left).class_of_site.data();
    left_count = static_cast<std::uint32_t>(repeats_of(left).unique);
  }
  if (right->is_tip()) {
    right_codes = patterns_.tip_rows[static_cast<std::size_t>(right->node_id)].data() + offset_;
  } else {
    right_map = repeats_of(right).class_of_site.data();
    right_count = static_cast<std::uint32_t>(repeats_of(right).unique);
  }

  build_classes_.resize(static_cast<std::size_t>(length_));
  std::uint32_t* classes = build_classes_.data();
  const auto max_classes = static_cast<std::uint32_t>(max_classes_);
  const std::uint64_t span = static_cast<std::uint64_t>(left_count) * right_count;
  if (span <= direct_span_) {
    // Every pair has its own slot: no hashing, no probing.
    if (direct_table_.size() < span) {
      direct_table_.resize(std::min<std::uint64_t>(next_pow2(span), direct_span_));
    }
    direct = true;
    return with_class_rows(left_codes, left_map, right_codes, right_map,
                           [&](const auto* lrow, const auto* rrow) {
                             return dedup_direct(lrow, rrow, length_, right_count, max_classes,
                                                 direct_table_.data(), classes,
                                                 build_left_.data(), build_right_.data());
                           });
  }
  direct = false;
  if (repeat_table_.empty()) {
    // A build stops past max_classes_ classes, so the table never runs
    // above half full.
    repeat_table_.resize(
        std::max<std::size_t>(16, next_pow2(2 * static_cast<std::size_t>(max_classes_ + 1))));
  }
  // On the (astronomically rare) 32-bit epoch wraparound, sweep the stamps
  // once.
  if (++repeat_epoch_ == 0) {
    for (auto& entry : repeat_table_) entry.epoch = 0;
    repeat_epoch_ = 1;
  }
  return with_class_rows(left_codes, left_map, right_codes, right_map,
                         [&](const auto* lrow, const auto* rrow) {
                           return dedup_hashed(lrow, rrow, length_, max_classes,
                                               repeat_table_.data(), repeat_table_.size() - 1,
                                               repeat_epoch_, classes, build_left_.data(),
                                               build_right_.data());
                         });
}

void LikelihoodEngine::build_leaf_set(const tree::Slot* slot) {
  std::uint64_t* out = leaf_sets_.data() + record_index(slot) * leaf_words_;
  std::fill_n(out, leaf_words_, 0);
  for (const tree::Slot* child : {slot->child1(), slot->child2()}) {
    if (child->is_tip()) {
      const auto taxon = static_cast<std::size_t>(child->node_id);
      out[taxon / 64] |= std::uint64_t{1} << (taxon % 64);
    } else {
      const std::uint64_t* in = leaf_set(child);
      for (std::size_t w = 0; w < leaf_words_; ++w) out[w] |= in[w];
    }
  }
}

bool LikelihoodEngine::holds_identity_set(const tree::Slot* slot) const {
  const std::uint64_t* set = leaf_set(slot);
  for (std::size_t m = 0; m < identity_sets_.size(); m += leaf_words_) {
    bool subset = true;
    for (std::size_t w = 0; w < leaf_words_ && subset; ++w) {
      subset = (identity_sets_[m + w] & ~set[w]) == 0;
    }
    if (subset) return true;
  }
  return false;
}

void LikelihoodEngine::add_identity_set(const tree::Slot* slot) {
  // The new set holds no member (holds_identity_set said so), so it is
  // minimal; members that hold it are not any more.
  const std::uint64_t* set = leaf_set(slot);
  std::size_t kept = 0;
  for (std::size_t m = 0; m < identity_sets_.size(); m += leaf_words_) {
    bool superset = true;
    for (std::size_t w = 0; w < leaf_words_ && superset; ++w) {
      superset = (set[w] & ~identity_sets_[m + w]) == 0;
    }
    if (superset) continue;
    std::copy_n(identity_sets_.begin() + static_cast<std::ptrdiff_t>(m), leaf_words_,
                identity_sets_.begin() + static_cast<std::ptrdiff_t>(kept));
    kept += leaf_words_;
  }
  identity_sets_.resize(kept);
  identity_sets_.insert(identity_sets_.end(), set, set + leaf_words_);
}

LikelihoodEngine::ClassRecordView LikelihoodEngine::class_record(const tree::Slot* slot) const {
  if (!site_repeats_ || slot->is_tip()) return {};
  const SlotRepeats& rep = repeats_of(slot);
  return {rep.class_of_site, rep.left, rep.right};
}

const std::uint32_t* LikelihoodEngine::site_gather(const tree::Slot* slot,
                                                   std::vector<std::uint32_t>& scratch) {
  if (slot->is_tip()) {
    // newview_repeats reads tip codes through the gather field.
    const bio::DnaCode* codes =
        patterns_.tip_rows[static_cast<std::size_t>(slot->node_id)].data() + offset_;
    scratch.resize(static_cast<std::size_t>(length_));
    for (std::int64_t s = 0; s < length_; ++s) {
      scratch[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(codes[s]);
    }
    return scratch.data();
  }
  const SlotRepeats& rep = repeats_of(slot);
  return rep.identity() ? identity_gather_.data() : rep.class_of_site.data();
}

std::int64_t LikelihoodEngine::node_unique_classes(int node_id) const {
  if (!site_repeats_) return length_;
  if (node_id < tree_.taxon_count()) return 0;
  const int inner = node_id - tree_.taxon_count();
  for (int k = 0; k < 3; ++k) {
    const tree::Slot* slot = tree_.inner_slot(inner, k);
    if (core_.slot_valid(slot)) return repeats_of(slot).unique;
  }
  return 0;
}

double LikelihoodEngine::unique_site_ratio() const {
  if (!site_repeats_) return 1.0;
  std::int64_t total = 0;
  std::int64_t built = 0;
  for (const auto& rep : repeats_) {
    if (rep.unique == 0) continue;
    total += rep.unique;
    ++built;
  }
  if (built == 0) return 1.0;
  return static_cast<double>(total) /
         (static_cast<double>(built) * static_cast<double>(length_));
}

void LikelihoodEngine::run_newview(tree::Slot* slot) {
  MINIPHI_ASSERT(!slot->is_tip());
  MINIPHI_ASSERT(slot->child1()->is_tip() || core_.slot_valid(slot->child1()));
  MINIPHI_ASSERT(slot->child2()->is_tip() || core_.slot_valid(slot->child2()));

  // On a compressed slot newview iterates parent *classes*, not sites: the
  // children are fetched through the per-class gather maps and the parent
  // CLA holds one block per unique class.  An identity slot iterates sites,
  // gathering only from compressed children; with none it is the dense
  // path.
  tree::Slot* left = slot->child1();
  tree::Slot* right = slot->child2();
  std::int64_t work = length_;
  const std::uint32_t* left_gather = nullptr;
  const std::uint32_t* right_gather = nullptr;
  if (site_repeats_) {
    const SlotRepeats& rep = ensure_repeat_classes(slot);
    if (!rep.identity()) {
      work = rep.unique;
      left_gather = rep.left.data();
      right_gather = rep.right.data();
    } else if (compressed(left) || compressed(right)) {
      left_gather = site_gather(left, code_gather_left_);
      right_gather = site_gather(right, code_gather_right_);
    }
  }
  const bool gather = left_gather != nullptr;

  NewviewCtx ctx;
  core_.acquire(slot->node_id, work);  // class-sized on a compressed slot
  ctx.parent_cla = core_.values(slot->node_id);
  ctx.parent_scale = core_.scales(slot->node_id);
  // Dense serial path: input verification runs chunk by chunk inside the
  // kernel loop below instead of as a separate cold sweep, so defer the
  // make_child_input verification.  A gather reads its children out of
  // chunk order, so it verifies them up front.
  const bool sdc_checks = core_.sdc_checks();
  const bool chunk_verify = sdc_checks && !gather && !use_openmp_;
  ctx.left = make_child_input(left, ptable_left_, ump_left_, slot->next->length,
                              /*verify=*/!chunk_verify);
  ctx.right = make_child_input(right, ptable_right_, ump_right_, slot->next->next->length,
                               /*verify=*/!chunk_verify);
  ctx.left.gather = left_gather;
  ctx.right.gather = right_gather;
  ctx.wtable = wtable_.data();
  ctx.begin = 0;
  ctx.end = work;
  ctx.tuning = tuning_;

  void (*newview_fn)(NewviewCtx&) = gather ? ops_.newview_repeats : ops_.newview;
  sdc::ClaChecksum parent_ck;
  sdc::ClaChecksum left_ck;
  sdc::ClaChecksum right_ck;
  const bool check_left = chunk_verify && core_.wants_deferred_verify(left);
  const bool check_right = chunk_verify && core_.wants_deferred_verify(right);
  // The buffer is overwritten incrementally: if a deferred verification
  // unwinds below, the old contents are gone, so the node must not keep
  // advertising its previous commit as valid.
  core_.begin_overwrite(slot->node_id);
  Timer timer;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (work + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(work, chunk * thread);
      ctx.end = std::min<std::int64_t>(work, ctx.begin + chunk);
      if (ctx.begin < ctx.end) newview_fn(ctx);
    }
#else
    newview_fn(ctx);
#endif
    if (sdc_checks) ops_.cla_checksum(parent_ck, ctx.parent_cla, ctx.parent_scale, 0, work);
  } else {
    // The one serial execution path (DESIGN.md §10): kSdcChunkSites-block
    // chunks over sites, or over parent classes on a compressed slot.  The
    // optional prologue folds each not-yet-trusted child chunk an instant
    // before the kernel pulls the same cache lines (the sweep doubles as a
    // prefetch); the optional epilogue folds the parent chunk while its
    // stores are still cache resident.  The kernels have no cross-site
    // state and the checksum splits exactly, so every chunking is
    // bit-identical to one full-range call.
    for (std::int64_t b = 0; b < work; b += kSdcChunkSites) {
      const std::int64_t e = std::min(work, b + kSdcChunkSites);
      if (check_left) ops_.cla_checksum(left_ck, ctx.left.cla, ctx.left.scale, b, e);
      if (check_right) ops_.cla_checksum(right_ck, ctx.right.cla, ctx.right.scale, b, e);
      ctx.begin = b;
      ctx.end = e;
      newview_fn(ctx);
      if (sdc_checks) ops_.cla_checksum(parent_ck, ctx.parent_cla, ctx.parent_scale, b, e);
    }
  }
  core_.account_kernel(Kernel::kNewview, /*preorder=*/false, work, timer.seconds(),
                       left->is_tip(), right->is_tip());
  if (core_.metrics()) {
    // Scaling events of *this* call: the kernel writes each parent scale as
    // the children's propagated counts plus 1 for a fresh underflow, so the
    // fresh count is the parent sum minus the gathered child sums.  Only
    // worth the O(work) sweep when metrics are on; the kernels themselves
    // report nothing.
    const std::int32_t* parent_scale = ctx.parent_scale;
    std::int64_t parent_sum = 0;
    for (std::int64_t i = 0; i < work; ++i) parent_sum += parent_scale[i];
    std::int64_t fresh = parent_sum;
    // Scale counts are non-negative, so a zero parent sum means nothing was
    // inherited either — the gather pass (the expensive part on the repeat
    // path) only runs when scaling actually happened somewhere below.
    if (parent_sum != 0 && !(ctx.left.is_tip() && ctx.right.is_tip())) {
      std::int64_t inherited = 0;
      for (std::int64_t i = 0; i < work; ++i) {
        if (!ctx.left.is_tip()) {
          inherited += ctx.left.scale[ctx.left.gather != nullptr ? ctx.left.gather[i] : i];
        }
        if (!ctx.right.is_tip()) {
          inherited += ctx.right.scale[ctx.right.gather != nullptr ? ctx.right.gather[i] : i];
        }
      }
      fresh = parent_sum - inherited;
    }
    core_.account_scaling_events(fresh);
  }

  // Deferred input verification: a mismatch must unwind before the parent
  // is committed, so a heal retry recomputes both nodes.
  if (check_left) core_.finish_deferred_verify(left, left_ck);
  if (check_right) core_.finish_deferred_verify(right, right_ck);

  core_.commit_cla(slot, work, &parent_ck);
}



double LikelihoodEngine::run_evaluate(tree::Slot* p, tree::Slot* q, double length) {
  EvaluateCtx ctx;
  core_.resident_input(p);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  ctx.left_scale = core_.scales(p->node_id);
  build_diag(model_, length, diag_);
  if (q->is_tip()) {
    build_evtab(diag_, tipvec16_, evtab_);
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.evtab = evtab_.data();
  } else {
    core_.resident_input(q);
    ctx.right_cla = core_.values(q->node_id);
    ctx.right_scale = core_.scales(q->node_id);
    ctx.diag = diag_.data();
  }
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.begin = 0;
  ctx.end = length_;
  // A class-compressed endpoint is read through its site → class map (the
  // other inner endpoint through its map or the identity gather).
  const bool gather = compressed(p) || compressed(q);
  if (gather) {
    ctx.left_gather = site_gather(p, code_gather_left_);
    if (!q->is_tip()) ctx.right_gather = site_gather(q, code_gather_right_);
  }
  double (*evaluate_fn)(const EvaluateCtx&) = gather ? ops_.evaluate_gather : ops_.evaluate;

  Timer timer;
  double result = 0.0;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx) reduction(+ : result)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (length_ + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(length_, chunk * thread);
      ctx.end = std::min<std::int64_t>(length_, ctx.begin + chunk);
      if (ctx.begin < ctx.end) result += evaluate_fn(ctx);
    }
#else
    result = evaluate_fn(ctx);
#endif
  } else {
    result = evaluate_fn(ctx);
  }
  core_.account_kernel(Kernel::kEvaluate, /*preorder=*/false, length_, timer.seconds(),
                       /*left_tip=*/false, q->is_tip());
  return result;
}

void LikelihoodEngine::run_derivative_sum(tree::Slot* p, tree::Slot* q) {
  SumCtx ctx;
  // Same arrangement as run_newview: a class-compressed endpoint is read
  // through its site → class map, and without one untrusted endpoint CLAs
  // verify chunk-interleaved with the kernel below (serial path) instead
  // of as up-front cold sweeps.  The sum buffer stays site-indexed, so
  // derivativeCore is unchanged.
  const bool gather = compressed(p) || compressed(q);
  const bool chunk_verify = core_.sdc_checks() && !gather && !use_openmp_;
  core_.resident_input(p, !chunk_verify);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  const std::int32_t* p_scale = core_.scales(p->node_id);
  const std::int32_t* q_scale = nullptr;
  if (q->is_tip()) {
    ctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(q->node_id)].data() + offset_;
    ctx.tipvec16 = tipvec16_.data();
  } else {
    core_.resident_input(q, !chunk_verify);
    ctx.right_cla = core_.values(q->node_id);
    q_scale = core_.scales(q->node_id);
  }
  ctx.sum = sum_buffer_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;
  if (gather) {
    ctx.left_gather = site_gather(p, code_gather_left_);
    if (!q->is_tip()) ctx.right_gather = site_gather(q, code_gather_right_);
  }
  void (*sum_fn)(SumCtx&) = gather ? ops_.derivative_sum_gather : ops_.derivative_sum;

  sdc::ClaChecksum p_sum;
  sdc::ClaChecksum q_sum;
  const bool check_p = chunk_verify && core_.wants_deferred_verify(p);
  const bool check_q = chunk_verify && !q->is_tip() && core_.wants_deferred_verify(q);

  Timer timer;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (length_ + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(length_, chunk * thread);
      ctx.end = std::min<std::int64_t>(length_, ctx.begin + chunk);
      if (ctx.begin < ctx.end) sum_fn(ctx);
    }
#else
    sum_fn(ctx);
#endif
  } else {
    // The run_newview chunk loop: each untrusted endpoint chunk is
    // checksummed the instant before the kernel pulls it through the cache.
    // The sum buffer itself is transient and not checksummed
    // (derivativeCore's non-finite sentinel covers it), so it has no
    // epilogue.
    for (std::int64_t b = 0; b < length_; b += kSdcChunkSites) {
      const std::int64_t e = std::min(length_, b + kSdcChunkSites);
      if (check_p) ops_.cla_checksum(p_sum, ctx.left_cla, p_scale, b, e);
      if (check_q) ops_.cla_checksum(q_sum, ctx.right_cla, q_scale, b, e);
      ctx.begin = b;
      ctx.end = e;
      sum_fn(ctx);
    }
  }
  core_.account_kernel(Kernel::kDerivSum, /*preorder=*/false, length_, timer.seconds(),
                       /*left_tip=*/false, q->is_tip());
  if (check_p) core_.finish_deferred_verify(p, p_sum);
  if (check_q) core_.finish_deferred_verify(q, q_sum);
}

std::pair<double, double> LikelihoodEngine::run_derivative_core(double z, bool want_lnl,
                                                                double& lnl_out) {
  build_dtab(model_, z, dtab_);

  DerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.want_lnl = want_lnl;

  Timer timer;
  double first = 0.0;
  double second = 0.0;
  double lnl = 0.0;
  if (use_openmp_) {
#if defined(_OPENMP)
#pragma omp parallel firstprivate(ctx) reduction(+ : first, second, lnl)
    {
      const int nthreads = omp_get_num_threads();
      const int thread = omp_get_thread_num();
      const std::int64_t chunk = (length_ + nthreads - 1) / nthreads;
      ctx.begin = std::min<std::int64_t>(length_, chunk * thread);
      ctx.end = std::min<std::int64_t>(length_, ctx.begin + chunk);
      if (ctx.begin < ctx.end) {
        ops_.derivative_core(ctx);
        first += ctx.out_first;
        second += ctx.out_second;
        lnl += ctx.out_lnl;
      }
    }
#else
    ops_.derivative_core(ctx);
    first = ctx.out_first;
    second = ctx.out_second;
    lnl = ctx.out_lnl;
#endif
  } else {
    ops_.derivative_core(ctx);
    first = ctx.out_first;
    second = ctx.out_second;
    lnl = ctx.out_lnl;
  }
  core_.account_kernel(Kernel::kDerivCore, /*preorder=*/false, length_, timer.seconds());
  lnl_out = lnl;
  return {first, second};
}

void LikelihoodEngine::begin_descent_op(const PreorderInputs& in) {
  NewviewCtx& nv = descent_newview_;
  nv = NewviewCtx{};
  nv.parent_cla = core_.preorder_values(in.buffer);
  nv.parent_scale = core_.preorder_scales(in.buffer);
  nv.wtable = wtable_.data();
  nv.tuning = tuning_;
  // Left input: the context flowing down from above — the parent's preorder
  // partial across the parent's own parent edge, or (seed op) the opposite
  // root-edge endpoint across the root edge.
  const bool left_dense = in.parent_buffer >= 0;  // left CLA is site-indexed (a preorder partial)
  if (left_dense) {
    build_ptable(model_, in.left_length, ptable_left_);
    nv.left.ptable = ptable_left_.data();
    nv.left.cla = core_.preorder_values(in.parent_buffer);
    nv.left.scale = core_.preorder_scales(in.parent_buffer);
  } else {
    nv.left = make_child_input(in.opposite, ptable_left_, ump_left_, in.left_length,
                               /*verify=*/true);
  }
  nv.right = make_child_input(in.sibling, ptable_right_, ump_right_, in.sibling->length,
                              /*verify=*/true);
  // Gathers are only needed when a class-compressed postorder CLA
  // participates; preorder partials, identity CLAs and tip code rows stay
  // site-indexed, and so do the gathers, so any slab reads its own sites.
  const bool gather = (!left_dense && compressed(in.opposite)) || compressed(in.sibling);
  if (gather) {
    nv.left.gather =
        left_dense ? identity_gather_.data() : site_gather(in.opposite, code_gather_left_);
    nv.right.gather = site_gather(in.sibling, code_gather_right_);
  }
  descent_newview_fn_ = gather ? ops_.newview_repeats : ops_.newview;

  // The contraction of the fresh partial against the node's own postorder
  // side: tip codes, a site-indexed CLA, or a compressed one read through
  // its site → class map.
  SumCtx& sum = descent_sum_;
  sum = SumCtx{};
  sum.left_cla = core_.preorder_values(in.buffer);
  sum.tuning = tuning_;
  descent_sum_fn_ = ops_.derivative_sum;
  if (in.own->is_tip()) {
    sum.right_codes = patterns_.tip_rows[static_cast<std::size_t>(in.node)].data() + offset_;
    sum.tipvec16 = tipvec16_.data();
  } else {
    sum.right_cla = core_.values(in.node);
    if (compressed(in.own)) {
      sum.left_gather = identity_gather_.data();
      sum.right_gather = repeats_of(in.own).class_of_site.data();
      descent_sum_fn_ = ops_.derivative_sum_gather;
    }
  }

  build_dtab(model_, in.own->length, dtab_);
  descent_core_ = DerivCtx{};
  descent_core_.dtab = dtab_.data();
}

void LikelihoodEngine::run_preorder_newview(std::int64_t begin, std::int64_t end) {
  descent_newview_.begin = begin;
  descent_newview_.end = end;
  descent_newview_fn_(descent_newview_);
}

void LikelihoodEngine::run_preorder_sum(std::int64_t begin, std::int64_t end) {
  // The slab runs as sites [0, end - begin) of inputs rebased to `begin`,
  // so the kernel's site-indexed stores fill the slab scratch.  A gathered
  // side rebases its site map and keeps its class-indexed CLA.
  SumCtx ctx = descent_sum_;
  ctx.sum = slab_sum_.data();
  ctx.begin = 0;
  ctx.end = end - begin;
  if (ctx.left_gather != nullptr) {
    ctx.left_gather += begin;
  } else {
    ctx.left_cla += begin * kSiteBlock;
  }
  if (ctx.right_codes != nullptr) {
    ctx.right_codes += begin;
  } else if (ctx.right_gather != nullptr) {
    ctx.right_gather += begin;
  } else {
    ctx.right_cla += begin * kSiteBlock;
  }
  descent_sum_fn_(ctx);
}

std::pair<double, double> LikelihoodEngine::run_descent_core(std::int64_t begin,
                                                             std::int64_t end) {
  // Rebased like the sum; the slab starts on a site group, so the carried
  // sums see the groups of one full-range call.
  descent_core_.sum = slab_sum_.data();
  descent_core_.weights = patterns_.weights.data() + offset_ + begin;
  descent_core_.begin = 0;
  descent_core_.end = end - begin;
  ops_.derivative_core(descent_core_);
  return {descent_core_.out_first, descent_core_.out_second};
}

}  // namespace miniphi::core
