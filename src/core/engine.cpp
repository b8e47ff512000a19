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

}  // namespace

LikelihoodEngine::LikelihoodEngine(const bio::PatternSet& patterns,
                                   const model::GtrModel& model, tree::Tree& tree,
                                   const Config& config)
    : patterns_(patterns),
      model_(model),
      tree_(tree),
      ops_(get_kernel_ops(config.isa)),
      tuning_(config.tuning),
      use_openmp_(config.use_openmp),
      core_(*this, tree),
      trace_(config.trace) {
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
    // A build stops at max_classes_ + 1 classes, so the table never runs
    // above half full.
    repeat_table_.resize(
        std::max<std::size_t>(16, next_pow2(2 * static_cast<std::size_t>(max_classes_ + 1))));
    build_first_.resize(static_cast<std::size_t>(max_classes_ + 1));
    class_left_.resize(static_cast<std::size_t>(max_classes_ + 1));
    class_right_.resize(static_cast<std::size_t>(max_classes_ + 1));
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

  if (core_.metrics()) {
    metric_ids_ = register_engine_metrics(ops_.isa, site_repeats_ ? "repeats" : "dense");
    pre_metric_ids_ = register_engine_metrics(ops_.isa, "preorder");
  }
  set_model(model);
}

void LikelihoodEngine::set_model(const model::GtrModel& model) {
  model_ = model;
  tipvec16_ = build_tipvec16(model_);
  wtable_ = build_wtable(model_);
  // Repeat classes are a pure function of topology and tip states, so
  // α/GTR optimization recomputes only the unique classes.
  core_.invalidate_all();  // spilled copies are stale too
  sum_prepared_ = false;
}

void LikelihoodEngine::set_alpha(double alpha) {
  model::GtrParams params = model_.params();
  params.alpha = alpha;
  set_model(model::GtrModel(params, model_.gamma_categories()));
}

void LikelihoodEngine::invalidate_node(int node_id) {
  if (node_id < tree_.taxon_count()) return;  // tips have no CLA
  core_.invalidate_node(node_id);
  sum_prepared_ = false;
}

void LikelihoodEngine::invalidate_all() {
  core_.invalidate_all();
  sum_prepared_ = false;
}

std::uint64_t LikelihoodEngine::cla_checksum(const double* values, const std::int32_t* scales,
                                             std::int64_t blocks) {
  // Lane-structured, via the ISA-matched KernelOps::cla_checksum back-end.
  sdc::ClaChecksum sum;
  ops_.cla_checksum(sum, values, scales, 0, blocks);
  return sum.finish();
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
  ++repeat_map_builds_;
  rep.left_seen = lsig;
  rep.right_seen = rsig;
  const auto become_identity = [&]() -> const SlotRepeats& {
    rep.unique = length_;
    rep.signature = kIdentitySignature;
    std::vector<std::uint32_t>().swap(rep.class_of_site);
    std::vector<std::uint32_t>().swap(rep.first_site);
    return rep;
  };
  if (lsig == kIdentitySignature || rsig == kIdentitySignature) return become_identity();

  // A site's class is the deduplicated pair (left class, right class), with
  // tip codes standing in for tip children — the LvD subtree-pattern
  // identity.  Children's records are current: newview runs bottom-up and
  // checks each record on use.
  const bio::DnaCode* left_codes = nullptr;
  const std::uint32_t* left_map = nullptr;
  const bio::DnaCode* right_codes = nullptr;
  const std::uint32_t* right_map = nullptr;
  child_classes(left, left_codes, left_map);
  child_classes(right, right_codes, right_map);

  // Open-addressing dedup with epoch stamps: one epoch per build, so the
  // table is never cleared on the hot path.  On the (astronomically rare)
  // 32-bit epoch wraparound, sweep the stamps once.
  if (++repeat_epoch_ == 0) {
    for (auto& entry : repeat_table_) entry.epoch = 0;
    repeat_epoch_ = 1;
  }
  build_classes_.resize(static_cast<std::size_t>(length_));
  std::uint32_t* classes = build_classes_.data();
  const auto max_classes = static_cast<std::uint32_t>(max_classes_);
  const std::size_t mask = repeat_table_.size() - 1;
  std::uint32_t unique = 0;
  for (std::int64_t s = 0; s < length_; ++s) {
    const std::uint32_t lc = (left_codes != nullptr) ? static_cast<std::uint32_t>(left_codes[s])
                                                     : left_map[s];
    const std::uint32_t rc = (right_codes != nullptr)
                                 ? static_cast<std::uint32_t>(right_codes[s])
                                 : right_map[s];
    const std::uint64_t key = (static_cast<std::uint64_t>(lc) << 32) | rc;
    std::size_t probe = static_cast<std::size_t>(mix64(key)) & mask;
    for (;;) {
      RepeatHashEntry& entry = repeat_table_[probe];
      if (entry.epoch != repeat_epoch_) {
        // Past the cutoff: stop hashing, the slot runs site-indexed.
        if (unique == max_classes) return become_identity();
        entry.key = key;
        entry.cls = unique;
        entry.epoch = repeat_epoch_;
        build_first_[unique] = static_cast<std::uint32_t>(s);
        classes[s] = unique;
        ++unique;  // class ids in first-appearance order: deterministic
        break;
      }
      if (entry.key == key) {
        classes[s] = entry.cls;
        break;
      }
      probe = (probe + 1) & mask;
    }
  }
  rep.class_of_site.swap(build_classes_);
  rep.first_site.assign(build_first_.begin(), build_first_.begin() + unique);
  rep.unique = unique;
  rep.signature = ++repeat_version_counter_;  // parents must rebuild against us
  return rep;
}

void LikelihoodEngine::child_classes(const tree::Slot* child, const bio::DnaCode*& codes,
                                     const std::uint32_t*& map) const {
  if (child->is_tip()) {
    codes = patterns_.tip_rows[static_cast<std::size_t>(child->node_id)].data() + offset_;
  } else {
    map = repeats_of(child).class_of_site.data();
  }
}

void LikelihoodEngine::fill_class_children(tree::Slot* slot, const SlotRepeats& rep) {
  // A class's child indices are the children's classes at any one of its
  // sites: O(classes), cheaper than keeping two more arrays per slot.
  const auto fill = [&](const tree::Slot* child, std::vector<std::uint32_t>& out) {
    const bio::DnaCode* codes = nullptr;
    const std::uint32_t* map = nullptr;
    child_classes(child, codes, map);
    const std::uint32_t* first = rep.first_site.data();
    for (std::int64_t c = 0; c < rep.unique; ++c) {
      const std::uint32_t s = first[c];
      out[static_cast<std::size_t>(c)] =
          codes != nullptr ? static_cast<std::uint32_t>(codes[s]) : map[s];
    }
  };
  fill(slot->child1(), class_left_);
  fill(slot->child2(), class_right_);
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
      fill_class_children(slot, rep);
      left_gather = class_left_.data();
      right_gather = class_right_.data();
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
  auto& stat = stats_.kernel(Kernel::kNewview);
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
  const double elapsed = timer.seconds();
  // CLA traffic: one parent block written per computed site/class plus one
  // block read per non-tip child (tips read the tiny per-code tables).
  const std::int64_t cla_blocks =
      work * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1));
  const std::int64_t cla_bytes = cla_blocks * kSiteBlock * static_cast<std::int64_t>(sizeof(double));
  stat.seconds += elapsed;
  ++stat.calls;
  stat.sites += work;  // cost-model honesty: only the classes actually computed
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (core_.metrics()) {
    publish_kernel(metric_ids_.kernels[static_cast<std::size_t>(
                       static_cast<int>(Kernel::kNewview))],
                   work, length_, cla_bytes, elapsed);
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
    stats_.scaling_events += fresh;
    obs::Registry::instance().add(metric_ids_.scaling_events, fresh);
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kNewview, left->is_tip(), right->is_tip(), work, length_);
  }

  // Deferred input verification: a mismatch must unwind before the parent
  // is committed, so a heal retry recomputes both nodes.
  if (check_left) core_.finish_deferred_verify(left, left_ck);
  if (check_right) core_.finish_deferred_verify(right, right_ck);

  core_.commit_cla(slot, work, &parent_ck);
  sum_prepared_ = false;
}


double LikelihoodEngine::run_evaluate(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  MINIPHI_ASSERT(q != nullptr);
  // The kernel requires the left side to be an inner CLA.
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "evaluate: both ends of the root edge are tips");

  EvaluateCtx ctx;
  core_.resident_input(p);  // both endpoints are pinned by validate_edge
  ctx.left_cla = core_.values(p->node_id);
  ctx.left_scale = core_.scales(p->node_id);
  build_diag(model_, edge->length, diag_);
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

  auto& stat = stats_.kernel(Kernel::kEvaluate);
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
  const double elapsed = timer.seconds();
  const std::int64_t cla_bytes = length_ * (q->is_tip() ? 1 : 2) * kSiteBlock *
                                 static_cast<std::int64_t>(sizeof(double));
  stat.seconds += elapsed;
  ++stat.calls;
  stat.sites += length_;
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (core_.metrics()) {
    publish_kernel(
        metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kEvaluate))],
        length_, length_, cla_bytes, elapsed);
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kEvaluate, false, q->is_tip(), length_);
  }
  return result;
}

double LikelihoodEngine::log_likelihood(tree::Slot* edge) {
  return core_.log_likelihood(edge, [this](tree::Slot* e) { return run_evaluate(e); });
}

void LikelihoodEngine::prepare_derivatives(tree::Slot* edge) {
  core_.guarded([&] { run_prepare_derivatives(edge); });
}

void LikelihoodEngine::run_prepare_derivatives(tree::Slot* edge) {
  tree::Slot* p = edge;
  tree::Slot* q = edge->back;
  if (p->is_tip()) std::swap(p, q);
  MINIPHI_CHECK(!p->is_tip(), "derivatives: both ends of the branch are tips");

  core_.validate_edge(edge);

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

  auto& stat = stats_.kernel(Kernel::kDerivSum);
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
  {
    const double elapsed = timer.seconds();
    // Reads one block per non-tip endpoint, writes the site-indexed sum.
    const std::int64_t cla_bytes = length_ * (q->is_tip() ? 2 : 3) * kSiteBlock *
                                   static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (core_.metrics()) {
      publish_kernel(
          metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivSum))],
          length_, length_, cla_bytes, elapsed);
    }
  }
  if (check_p) core_.finish_deferred_verify(p, p_sum);
  if (check_q) core_.finish_deferred_verify(q, q_sum);
  core_.unpin(p->node_id);
  core_.unpin(q->node_id);
  sum_left_tip_ = false;
  sum_right_tip_ = q->is_tip();
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kDerivSum, sum_left_tip_, sum_right_tip_, length_);
  }
  sum_prepared_ = true;
}

std::pair<double, double> LikelihoodEngine::derivatives(double z) {
  double lnl_unused = 0.0;
  return run_derivatives(z, /*want_lnl=*/false, lnl_unused);
}

std::pair<double, double> LikelihoodEngine::run_derivatives(double z, bool want_lnl,
                                                            double& lnl_out) {
  MINIPHI_CHECK(sum_prepared_, "derivatives() without prepare_derivatives()");
  build_dtab(model_, z, dtab_);

  DerivCtx ctx;
  ctx.sum = sum_buffer_.data();
  ctx.weights = patterns_.weights.data() + offset_;
  ctx.dtab = dtab_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.want_lnl = want_lnl;

  auto& stat = stats_.kernel(Kernel::kDerivCore);
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
  lnl_out = lnl;
  const double elapsed = timer.seconds();
  const std::int64_t cla_bytes =
      length_ * kSiteBlock * static_cast<std::int64_t>(sizeof(double));  // sum-buffer reads
  stat.seconds += elapsed;
  ++stat.calls;
  stat.sites += length_;
  stat.sites_represented += length_;
  stat.bytes += cla_bytes;
  if (core_.metrics()) {
    publish_kernel(
        metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivCore))],
        length_, length_, cla_bytes, elapsed);
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kDerivCore, sum_left_tip_, sum_right_tip_, length_);
  }
  if (core_.sdc_checks() && (!std::isfinite(first) || !std::isfinite(second))) {
    // The sum buffer is not checksummed (it is transient); a non-finite
    // derivative is the sentinel.  optimize_branch heals by re-preparing.
    core_.report_corruption(-1, "sdc: non-finite derivative from derivativeCore");
  }
  return {first, second};
}

double LikelihoodEngine::newton_step(double z, double first, double second) {
  double next;
  if (second < 0.0) {
    next = z - first / second;
  } else {
    // Not locally concave: move in the uphill direction geometrically.
    next = (first > 0.0) ? z * 4.0 : z * 0.25;
  }
  return std::clamp(next, kMinBranchLength, kMaxBranchLength);
}

double LikelihoodEngine::optimize_branch(tree::Slot* edge, int max_iterations) {
  return core_.heal_loop([&] { prepare_derivatives(edge); }, [&] {
    const double z0 = edge->length;
    double z = z0;
    double lnl0 = 0.0;
    for (int iteration = 0; iteration < max_iterations; ++iteration) {
      // Project the log-likelihood at the starting length on the first
      // iteration: it is the baseline the final iterate must beat.
      double lnl = 0.0;
      const auto [first, second] = run_derivatives(z, /*want_lnl=*/iteration == 0, lnl);
      if (iteration == 0) lnl0 = lnl;
      const double next = newton_step(z, first, second);
      const bool converged = std::abs(next - z) < 1e-10;
      z = next;
      if (converged) break;
    }
    if (z != z0) {
      // The geometric fallback in newton_step (second ≥ 0) moves along the
      // gradient's sign but has no step-size control, and a diverging
      // Newton sequence can end anywhere: committing the final iterate
      // unguarded could *lower* the likelihood.  The projection shares the
      // prepared sum buffer, so the guard costs one derivativeCore call —
      // no traversal.  `!(≥)` also rejects a NaN projection.
      double lnl_final = 0.0;
      run_derivatives(z, /*want_lnl=*/true, lnl_final);
      if (!(lnl_final >= lnl0)) z = z0;
    }
    tree::Tree::set_length(edge, z);
    invalidate_node(edge->node_id);
    invalidate_node(edge->back->node_id);
    return z;
  });
}

double LikelihoodEngine::optimize_all_branches(tree::Slot* root_edge, int passes) {
  for (int pass = 0; pass < passes; ++pass) {
    for (tree::Slot* edge : tree_.edges()) {
      core_.check_cancel();  // per-branch cancellation boundary
      optimize_branch(edge);
    }
  }
  return log_likelihood(root_edge);
}

bool LikelihoodEngine::gradient_all_branches(tree::Slot* root_edge,
                                             std::vector<BranchGradient>& out) {
  MINIPHI_ASSERT(root_edge != nullptr && root_edge->back != nullptr);
  core_.guarded([&] { run_gradient_all_branches(root_edge, out); });
  return true;
}

void LikelihoodEngine::run_gradient_all_branches(tree::Slot* root_edge,
                                                 std::vector<BranchGradient>& out) {
  out.clear();
  out.reserve(static_cast<std::size_t>(tree_.edge_count()));
  core_.ensure_preorder_tier();

  // Root edge first: the classic two-endpoint protocol.  Its validate_edge
  // also orients every postorder CLA toward the root edge — exactly the
  // orientation the descent's sibling inputs need.
  run_prepare_derivatives(root_edge);
  double root_lnl_unused = 0.0;
  const auto [root_first, root_second] =
      run_derivatives(root_edge->length, /*want_lnl=*/false, root_lnl_unused);
  out.push_back({root_edge, root_edge->length, root_first, root_second});

  // Root-to-tips descent.  Ops are emitted parents-first, so emission order
  // is a valid schedule; it is also the only schedule used — the pass is
  // deliberately serial so the per-edge results are bit-identical no matter
  // how the postorder CLAs were produced (level order, DFS order or
  // distributed execution all commit the same buffers).
  core_.run_preorder_descent(root_edge, [&](const TraversalPlan& plan, const PlfOp& op) {
    run_preorder_op(plan, op, out);
  });
  // The descent reused the sum buffer for its per-edge contractions.
  sum_prepared_ = false;
}

void LikelihoodEngine::run_preorder_op(const TraversalPlan& plan, const PlfOp& op,
                                       std::vector<BranchGradient>& out) {
  const EngineCore::PreorderInputs in = core_.begin_preorder_op(plan, op);
  tree::Slot* toward = op.slot;       // parent's half-edge toward the node
  tree::Slot* v_slot = toward->back;  // the node's half-edge back up
  const int v = in.node;

  NewviewCtx ctx;
  ctx.parent_cla = core_.preorder_values(v);
  ctx.parent_scale = core_.preorder_scales(v);
  ctx.wtable = wtable_.data();
  ctx.begin = 0;
  ctx.end = length_;
  ctx.tuning = tuning_;

  // Left input: the context flowing down from above — the parent's preorder
  // partial across the parent's own parent edge, or (seed op) the opposite
  // root-edge endpoint across the root edge.
  const bool left_dense = in.parent >= 0;  // left CLA is site-indexed (a preorder partial)
  if (left_dense) {
    build_ptable(model_, in.left_length, ptable_left_);
    ctx.left.ptable = ptable_left_.data();
    ctx.left.cla = core_.preorder_values(in.parent);
    ctx.left.scale = core_.preorder_scales(in.parent);
  } else {
    ctx.left = make_child_input(in.opposite, ptable_left_, ump_left_, in.left_length,
                                /*verify=*/true);
  }
  tree::Slot* sib = in.sibling;
  ctx.right = make_child_input(sib, ptable_right_, ump_right_, op.sibling->length,
                               /*verify=*/true);

  // Gathers are only needed when a class-compressed postorder CLA
  // participates; preorder partials, identity CLAs and tip code rows stay
  // site-indexed.
  const bool gather = (!left_dense && compressed(in.opposite)) || compressed(sib);
  if (gather) {
    ctx.left.gather =
        left_dense ? identity_gather_.data() : site_gather(in.opposite, code_gather_left_);
    ctx.right.gather = site_gather(sib, code_gather_right_);
  }

  void (*newview_fn)(NewviewCtx&) = gather ? ops_.newview_repeats : ops_.newview;
  {
    auto& stat = stats_.kernel(Kernel::kNewview);
    Timer timer;
    newview_fn(ctx);
    const double elapsed = timer.seconds();
    const std::int64_t cla_blocks =
        length_ * (1 + (ctx.left.is_tip() ? 0 : 1) + (ctx.right.is_tip() ? 0 : 1));
    const std::int64_t cla_bytes =
        cla_blocks * kSiteBlock * static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (core_.metrics()) {
      publish_kernel(
          pre_metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kNewview))],
          length_, length_, cla_bytes, elapsed);
    }
  }
  if (trace_ != nullptr) {
    trace_->record(TraceKernel::kNewview, ctx.left.is_tip(), ctx.right.is_tip(), length_,
                   length_);
  }
  core_.end_preorder_newview(in);

  // Gradient of the edge above the node: derivativeSum contracts the fresh
  // preorder partial against the node's own postorder side, derivativeCore
  // evaluates ℓ'/ℓ'' at the edge's current length.
  SumCtx sctx;
  sctx.sum = sum_buffer_.data();
  sctx.left_cla = ctx.parent_cla;
  sctx.begin = 0;
  sctx.end = length_;
  sctx.tuning = tuning_;
  void (*sum_fn)(SumCtx&) = ops_.derivative_sum;
  bool right_tip = v_slot->is_tip();
  if (right_tip) {
    sctx.right_codes = patterns_.tip_rows[static_cast<std::size_t>(v)].data() + offset_;
    sctx.tipvec16 = tipvec16_.data();
  } else {
    // The node's own postorder CLA: reload or rebuild it like any other
    // tight-budget input (pinned until the contraction is done).
    core_.ready_preorder_node(v_slot);
    sctx.right_cla = core_.values(v);
    if (compressed(v_slot)) {
      sctx.left_gather = identity_gather_.data();
      sctx.right_gather = repeats_of(v_slot).class_of_site.data();
      sum_fn = ops_.derivative_sum_gather;
    }
  }
  {
    auto& stat = stats_.kernel(Kernel::kDerivSum);
    Timer timer;
    sum_fn(sctx);
    const double elapsed = timer.seconds();
    const std::int64_t cla_bytes = length_ * (right_tip ? 2 : 3) * kSiteBlock *
                                   static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (core_.metrics()) {
      publish_kernel(
          pre_metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivSum))],
          length_, length_, cla_bytes, elapsed);
    }
    if (trace_ != nullptr) {
      trace_->record(TraceKernel::kDerivSum, false, right_tip, length_);
    }
  }
  // The contraction is done with both CLAs; derivativeCore below reads only
  // the sum buffer.
  core_.end_preorder_op(in);

  build_dtab(model_, toward->length, dtab_);
  DerivCtx dctx;
  dctx.sum = sum_buffer_.data();
  dctx.weights = patterns_.weights.data() + offset_;
  dctx.dtab = dtab_.data();
  dctx.begin = 0;
  dctx.end = length_;
  {
    auto& stat = stats_.kernel(Kernel::kDerivCore);
    Timer timer;
    ops_.derivative_core(dctx);
    const double elapsed = timer.seconds();
    const std::int64_t cla_bytes =
        length_ * kSiteBlock * static_cast<std::int64_t>(sizeof(double));
    stat.seconds += elapsed;
    ++stat.calls;
    stat.sites += length_;
    stat.sites_represented += length_;
    stat.bytes += cla_bytes;
    if (core_.metrics()) {
      publish_kernel(
          pre_metric_ids_.kernels[static_cast<std::size_t>(static_cast<int>(Kernel::kDerivCore))],
          length_, length_, cla_bytes, elapsed);
    }
    if (trace_ != nullptr) {
      trace_->record(TraceKernel::kDerivCore, false, right_tip, length_);
    }
  }
  if (core_.sdc_checks() &&
      (!std::isfinite(dctx.out_first) || !std::isfinite(dctx.out_second))) {
    core_.report_corruption(-1, "sdc: non-finite all-branch gradient from derivativeCore");
  }
  out.push_back({toward, toward->length, dctx.out_first, dctx.out_second});
}

void LikelihoodEngine::reset_stats() { stats_ = EvalStats{}; }

}  // namespace miniphi::core
