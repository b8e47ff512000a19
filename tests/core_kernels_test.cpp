// Kernel-level tests: every vectorized back-end must agree with the scalar
// reference on randomized inputs, for all child-type combinations and tuning
// variants (streaming stores on/off, prefetching on/off); chunked execution
// and both store modes must be bitwise invisible in every kernel family.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/cat/cat_kernels.hpp"
#include "src/core/general/general_kernels.hpp"
#include "src/core/kernels.hpp"
#include "src/core/ptable.hpp"
#include "src/model/gtr.hpp"
#include "src/util/aligned.hpp"
#include "src/util/rng.hpp"
#include "tests/testutil.hpp"

namespace miniphi::core {
namespace {

struct KernelFixtureData {
  std::int64_t npat = 0;
  AlignedDoubles left_cla;
  AlignedDoubles right_cla;
  std::vector<std::int32_t> left_scale;
  std::vector<std::int32_t> right_scale;
  std::vector<bio::DnaCode> left_codes;
  std::vector<bio::DnaCode> right_codes;
  std::vector<std::uint32_t> weights;
  AlignedDoubles ptable_left = AlignedDoubles(kPtableSize);
  AlignedDoubles ptable_right = AlignedDoubles(kPtableSize);
  AlignedDoubles ump_left = AlignedDoubles(kUmpSize);
  AlignedDoubles ump_right = AlignedDoubles(kUmpSize);
  AlignedDoubles wtable;
  AlignedDoubles tipvec16;
  AlignedDoubles diag = AlignedDoubles(kDiagSize);
  AlignedDoubles evtab = AlignedDoubles(kEvtabSize);
  AlignedDoubles dtab = AlignedDoubles(kDtabSize);
};

KernelFixtureData make_fixture(std::int64_t npat, Rng& rng) {
  KernelFixtureData data;
  data.npat = npat;
  const auto params = testutil::random_gtr_params(rng);
  const model::GtrModel model(params);

  const auto fill_cla = [&](AlignedDoubles& cla) {
    cla.resize(static_cast<std::size_t>(npat) * kSiteBlock);
    for (auto& value : cla) value = rng.uniform(-1.0, 1.0);
  };
  fill_cla(data.left_cla);
  fill_cla(data.right_cla);
  data.left_scale.resize(static_cast<std::size_t>(npat));
  data.right_scale.resize(static_cast<std::size_t>(npat));
  data.left_codes.resize(static_cast<std::size_t>(npat));
  data.right_codes.resize(static_cast<std::size_t>(npat));
  data.weights.resize(static_cast<std::size_t>(npat));
  for (std::int64_t s = 0; s < npat; ++s) {
    data.left_scale[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(rng.below(3));
    data.right_scale[static_cast<std::size_t>(s)] = static_cast<std::int32_t>(rng.below(3));
    data.left_codes[static_cast<std::size_t>(s)] =
        static_cast<bio::DnaCode>(1 + rng.below(15));
    data.right_codes[static_cast<std::size_t>(s)] =
        static_cast<bio::DnaCode>(1 + rng.below(15));
    data.weights[static_cast<std::size_t>(s)] = static_cast<std::uint32_t>(1 + rng.below(5));
  }

  const double z1 = rng.uniform(0.02, 0.8);
  const double z2 = rng.uniform(0.02, 0.8);
  build_ptable(model, z1, data.ptable_left);
  build_ptable(model, z2, data.ptable_right);
  build_ump(model, data.ptable_left, data.ump_left);
  build_ump(model, data.ptable_right, data.ump_right);
  data.wtable = build_wtable(model);
  data.tipvec16 = build_tipvec16(model);
  build_diag(model, z1, data.diag);
  build_evtab(data.diag, data.tipvec16, data.evtab);
  build_dtab(model, z1, data.dtab);
  return data;
}

ChildInput child_as_inner(const KernelFixtureData& data, bool left) {
  ChildInput input;
  input.cla = left ? data.left_cla.data() : data.right_cla.data();
  input.scale = left ? data.left_scale.data() : data.right_scale.data();
  input.ptable = left ? data.ptable_left.data() : data.ptable_right.data();
  return input;
}

ChildInput child_as_tip(const KernelFixtureData& data, bool left) {
  ChildInput input;
  input.codes = left ? data.left_codes.data() : data.right_codes.data();
  input.ptable = left ? data.ptable_left.data() : data.ptable_right.data();
  input.ump = left ? data.ump_left.data() : data.ump_right.data();
  return input;
}

struct CaseParam {
  simd::Isa isa;
  bool left_tip;
  bool right_tip;
  KernelTuning tuning;
};

std::string case_name(const ::testing::TestParamInfo<CaseParam>& info) {
  const auto& p = info.param;
  std::string name = simd::to_string(p.isa);
  name += p.left_tip ? "_tipL" : "_innerL";
  name += p.right_tip ? "_tipR" : "_innerR";
  name += p.tuning.streaming_stores ? "_stream" : "_nostream";
  name += p.tuning.prefetch_distance > 0 ? "_prefetch" : "_noprefetch";
  return name;
}

// gtest's byte dump of the case, padding zeroed, so listed names are stable.
void PrintTo(const CaseParam& c, std::ostream* os) {
  testutil::print_zero_padded_bytes<CaseParam>(
      [&](CaseParam& out) {
        out.isa = c.isa;
        out.left_tip = c.left_tip;
        out.right_tip = c.right_tip;
        out.tuning.streaming_stores = c.tuning.streaming_stores;
        out.tuning.prefetch_distance = c.tuning.prefetch_distance;
      },
      os);
}

class KernelAgreement : public ::testing::TestWithParam<CaseParam> {
 protected:
  void SetUp() override {
    if (!simd::isa_supported(GetParam().isa)) GTEST_SKIP() << "ISA unsupported";
  }
};

TEST_P(KernelAgreement, NewviewMatchesScalar) {
  const auto& param = GetParam();
  Rng rng(777);
  auto data = make_fixture(203, rng);  // odd count exercises tails

  const auto run = [&](const KernelOps& ops, KernelTuning tuning, AlignedDoubles& out,
                       std::vector<std::int32_t>& out_scale) {
    out.assign(static_cast<std::size_t>(data.npat) * kSiteBlock, 0.0);
    out_scale.assign(static_cast<std::size_t>(data.npat), 0);
    NewviewCtx ctx;
    ctx.parent_cla = out.data();
    ctx.parent_scale = out_scale.data();
    ctx.left = param.left_tip ? child_as_tip(data, true) : child_as_inner(data, true);
    ctx.right = param.right_tip ? child_as_tip(data, false) : child_as_inner(data, false);
    ctx.wtable = data.wtable.data();
    ctx.begin = 0;
    ctx.end = data.npat;
    ctx.tuning = tuning;
    ops.newview(ctx);
  };

  AlignedDoubles expected, actual;
  std::vector<std::int32_t> expected_scale, actual_scale;
  run(scalar_kernel_ops(), KernelTuning{}, expected, expected_scale);
  run(get_kernel_ops(param.isa), param.tuning, actual, actual_scale);

  // FMA contraction reorders rounding relative to the scalar mul+add chain;
  // agreement is tight but not bitwise.
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i], expected[i], std::abs(expected[i]) * 1e-11 + 1e-13) << "i=" << i;
  }
  EXPECT_EQ(actual_scale, expected_scale);
}

TEST_P(KernelAgreement, EvaluateMatchesScalar) {
  const auto& param = GetParam();
  Rng rng(888);
  auto data = make_fixture(157, rng);

  const auto run = [&](const KernelOps& ops) {
    EvaluateCtx ctx;
    ctx.left_cla = data.left_cla.data();
    ctx.left_scale = data.left_scale.data();
    if (param.right_tip) {
      ctx.right_codes = data.right_codes.data();
      ctx.evtab = data.evtab.data();
    } else {
      ctx.right_cla = data.right_cla.data();
      ctx.right_scale = data.right_scale.data();
      ctx.diag = data.diag.data();
    }
    ctx.weights = data.weights.data();
    ctx.begin = 0;
    ctx.end = data.npat;
    return ops.evaluate(ctx);
  };

  const double expected = run(scalar_kernel_ops());
  const double actual = run(get_kernel_ops(param.isa));
  EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-12 + 1e-10);
}

TEST_P(KernelAgreement, DerivativeSumMatchesScalar) {
  const auto& param = GetParam();
  Rng rng(999);
  auto data = make_fixture(211, rng);

  const auto run = [&](const KernelOps& ops, KernelTuning tuning, AlignedDoubles& out) {
    out.assign(static_cast<std::size_t>(data.npat) * kSiteBlock, 0.0);
    SumCtx ctx;
    ctx.sum = out.data();
    ctx.left_cla = data.left_cla.data();
    if (param.right_tip) {
      ctx.right_codes = data.right_codes.data();
      ctx.tipvec16 = data.tipvec16.data();
    } else {
      ctx.right_cla = data.right_cla.data();
    }
    ctx.begin = 0;
    ctx.end = data.npat;
    ctx.tuning = tuning;
    ops.derivative_sum(ctx);
  };

  AlignedDoubles expected, actual;
  run(scalar_kernel_ops(), KernelTuning{}, expected);
  run(get_kernel_ops(param.isa), param.tuning, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    // Element-wise product: results must be bit-identical.
    EXPECT_DOUBLE_EQ(actual[i], expected[i]) << "i=" << i;
  }
}

TEST_P(KernelAgreement, DerivativeCoreMatchesScalar) {
  const auto& param = GetParam();
  Rng rng(1111);
  auto data = make_fixture(173, rng);  // odd: exercises the blocked + tail path

  // Use a real sum buffer (product of CLAs) so magnitudes are realistic.
  AlignedDoubles sum(static_cast<std::size_t>(data.npat) * kSiteBlock);
  for (std::size_t i = 0; i < sum.size(); ++i) {
    sum[i] = std::abs(data.left_cla[i] * data.right_cla[i]);
  }

  const auto run = [&](const KernelOps& ops) {
    DerivCtx ctx;
    ctx.sum = sum.data();
    ctx.weights = data.weights.data();
    ctx.dtab = data.dtab.data();
    ctx.begin = 0;
    ctx.end = data.npat;
    ops.derivative_core(ctx);
    return std::pair<double, double>{ctx.out_first, ctx.out_second};
  };

  const auto [e1, e2] = run(scalar_kernel_ops());
  const auto [a1, a2] = run(get_kernel_ops(param.isa));
  EXPECT_NEAR(a1, e1, std::abs(e1) * 1e-11 + 1e-9);
  EXPECT_NEAR(a2, e2, std::abs(e2) * 1e-11 + 1e-9);
}

std::vector<CaseParam> all_cases() {
  std::vector<CaseParam> cases;
  // Store modes are listed explicitly: the default no longer streams, and
  // the non-temporal path must stay covered as the Section V-B5 ablation.
  const KernelTuning defaults{};
  KernelTuning streamed;
  streamed.streaming_stores = true;
  streamed.prefetch_distance = 8;
  KernelTuning plain;
  plain.streaming_stores = false;
  plain.prefetch_distance = 0;
  for (const auto isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    for (const bool left_tip : {false, true}) {
      for (const bool right_tip : {false, true}) {
        cases.push_back({isa, left_tip, right_tip, defaults});
        cases.push_back({isa, left_tip, right_tip, streamed});
        cases.push_back({isa, left_tip, right_tip, plain});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, KernelAgreement, ::testing::ValuesIn(all_cases()),
                         case_name);

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas;
  for (const auto isa : {simd::Isa::kScalar, simd::Isa::kAvx2, simd::Isa::kAvx512}) {
    if (simd::isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

KernelTuning store_mode(bool stream) {
  KernelTuning tuning;
  tuning.streaming_stores = stream;
  return tuning;
}

/// Runs `kernel(begin, end)` over [0, n) in `chunk`-wide pieces (the last
/// one shorter), the way the engine's serial chunk loop does.
template <typename Kernel>
void run_chunked(std::int64_t n, std::int64_t chunk, const Kernel& kernel) {
  for (std::int64_t b = 0; b < n; b += chunk) kernel(b, std::min(n, b + chunk));
}

// The engine runs newview and derivativeSum in fixed-size chunks, with the
// store mode as an ablation switch.  Both must be invisible in the output:
// a chunked run in either store mode is bitwise equal to one full-range
// call with the default tuning.  203 sites in chunks of 37 start most
// chunks at odd sites and end on an 18-site tail.
TEST(KernelChunking, NewviewChunksAndStoreModesAreBitIdentical) {
  Rng rng(4242);
  const auto data = make_fixture(203, rng);
  for (const auto isa : supported_isas()) {
    const auto ops = get_kernel_ops(isa);
    for (const bool left_tip : {false, true}) {
      const auto run = [&](KernelTuning tuning, std::int64_t chunk, AlignedDoubles& out,
                           std::vector<std::int32_t>& out_scale) {
        out.assign(static_cast<std::size_t>(data.npat) * kSiteBlock, 0.0);
        out_scale.assign(static_cast<std::size_t>(data.npat), 0);
        NewviewCtx ctx;
        ctx.parent_cla = out.data();
        ctx.parent_scale = out_scale.data();
        ctx.left = left_tip ? child_as_tip(data, true) : child_as_inner(data, true);
        ctx.right = child_as_inner(data, false);
        ctx.wtable = data.wtable.data();
        ctx.tuning = tuning;
        run_chunked(data.npat, chunk, [&](std::int64_t b, std::int64_t e) {
          ctx.begin = b;
          ctx.end = e;
          ops.newview(ctx);
        });
      };
      AlignedDoubles expected, actual;
      std::vector<std::int32_t> expected_scale, actual_scale;
      run(KernelTuning{}, data.npat, expected, expected_scale);
      for (const bool stream : {false, true}) {
        run(store_mode(stream), 37, actual, actual_scale);
        const std::string where = simd::to_string(isa) + (left_tip ? " tipL" : " innerL") +
                                  (stream ? " stream" : " plain");
        EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(), expected.size() * sizeof(double)))
            << where;
        EXPECT_EQ(actual_scale, expected_scale) << where;
      }
    }
  }
}

TEST(KernelChunking, DerivativeSumChunksAndStoreModesAreBitIdentical) {
  Rng rng(4343);
  const auto data = make_fixture(211, rng);
  for (const auto isa : supported_isas()) {
    const auto ops = get_kernel_ops(isa);
    for (const bool right_tip : {false, true}) {
      const auto run = [&](KernelTuning tuning, std::int64_t chunk, AlignedDoubles& out) {
        out.assign(static_cast<std::size_t>(data.npat) * kSiteBlock, 0.0);
        SumCtx ctx;
        ctx.sum = out.data();
        ctx.left_cla = data.left_cla.data();
        if (right_tip) {
          ctx.right_codes = data.right_codes.data();
          ctx.tipvec16 = data.tipvec16.data();
        } else {
          ctx.right_cla = data.right_cla.data();
        }
        ctx.tuning = tuning;
        run_chunked(data.npat, chunk, [&](std::int64_t b, std::int64_t e) {
          ctx.begin = b;
          ctx.end = e;
          ops.derivative_sum(ctx);
        });
      };
      AlignedDoubles expected, actual;
      run(KernelTuning{}, data.npat, expected);
      for (const bool stream : {false, true}) {
        run(store_mode(stream), 37, actual);
        EXPECT_EQ(0, std::memcmp(actual.data(), expected.data(), expected.size() * sizeof(double)))
            << simd::to_string(isa) << (right_tip ? " tipR" : " innerR")
            << (stream ? " stream" : " plain");
      }
    }
  }
}

// --- Store-mode agreement for the CAT and general kernel families ---------
//
// Both families honour KernelTuning::streaming_stores in newview and
// derivativeSum.  The tables are random (the math need not be a valid
// model for a bitwise comparison); odd site counts reach the AVX-512 CAT
// kernels' one-site tails.

AlignedDoubles random_doubles(std::size_t count, Rng& rng) {
  AlignedDoubles values(count);
  for (auto& value : values) value = rng.uniform(-1.0, 1.0);
  return values;
}

std::vector<std::uint8_t> random_codes(std::size_t count, std::uint64_t below, Rng& rng) {
  std::vector<std::uint8_t> codes(count);
  for (auto& code : codes) code = static_cast<std::uint8_t>(rng.below(below));
  return codes;
}

std::vector<std::int32_t> random_scales(std::size_t count, Rng& rng) {
  std::vector<std::int32_t> scales(count);
  for (auto& scale : scales) scale = static_cast<std::int32_t>(rng.below(3));
  return scales;
}

TEST(CatKernelStoreModes, NewviewAndDerivativeSumAreBitIdentical) {
  Rng rng(5151);
  constexpr std::int64_t kSites = 151;
  constexpr int kCategories = 5;
  const auto n = static_cast<std::size_t>(kSites);
  const AlignedDoubles left_cla = random_doubles(n * kCatSiteBlock, rng);
  const AlignedDoubles right_cla = random_doubles(n * kCatSiteBlock, rng);
  const auto left_scale = random_scales(n, rng);
  const auto right_scale = random_scales(n, rng);
  const auto right_codes = random_codes(n, 16, rng);
  const auto categories = random_codes(n, kCategories, rng);
  const AlignedDoubles ptable_left = random_doubles(kCategories * 16, rng);
  const AlignedDoubles ptable_right = random_doubles(kCategories * 16, rng);
  const AlignedDoubles ump_right = random_doubles(kCategories * 16 * kCatSiteBlock, rng);
  const AlignedDoubles wtable = random_doubles(16, rng);
  const AlignedDoubles tipvec = random_doubles(16 * kCatSiteBlock, rng);

  for (const auto isa : supported_isas()) {
    const auto ops = get_cat_kernel_ops(isa);
    for (const bool right_tip : {false, true}) {
      const auto newview = [&](bool stream, AlignedDoubles& out,
                               std::vector<std::int32_t>& out_scale) {
        out.assign(n * kCatSiteBlock, 0.0);
        out_scale.assign(n, 0);
        CatNewviewCtx ctx;
        ctx.parent_cla = out.data();
        ctx.parent_scale = out_scale.data();
        ctx.left = {left_cla.data(), left_scale.data(), nullptr, ptable_left.data(), nullptr};
        if (right_tip) {
          ctx.right = {nullptr, nullptr, right_codes.data(), ptable_right.data(), ump_right.data()};
        } else {
          ctx.right = {right_cla.data(), right_scale.data(), nullptr, ptable_right.data(), nullptr};
        }
        ctx.wtable = wtable.data();
        ctx.site_categories = categories.data();
        ctx.end = kSites;
        ctx.tuning = store_mode(stream);
        ops.newview(ctx);
      };
      const auto derivative_sum = [&](bool stream, AlignedDoubles& out) {
        out.assign(n * kCatSiteBlock, 0.0);
        CatSumCtx ctx;
        ctx.sum = out.data();
        ctx.left_cla = left_cla.data();
        if (right_tip) {
          ctx.right_codes = right_codes.data();
          ctx.tipvec = tipvec.data();
        } else {
          ctx.right_cla = right_cla.data();
        }
        ctx.end = kSites;
        ctx.tuning = store_mode(stream);
        ops.derivative_sum(ctx);
      };
      const std::string where = simd::to_string(isa) + (right_tip ? " tipR" : " innerR");
      AlignedDoubles plain, streamed;
      std::vector<std::int32_t> plain_scale, streamed_scale;
      newview(false, plain, plain_scale);
      newview(true, streamed, streamed_scale);
      EXPECT_EQ(0, std::memcmp(plain.data(), streamed.data(), plain.size() * sizeof(double)))
          << "newview " << where;
      EXPECT_EQ(plain_scale, streamed_scale) << "newview " << where;
      derivative_sum(false, plain);
      derivative_sum(true, streamed);
      EXPECT_EQ(0, std::memcmp(plain.data(), streamed.data(), plain.size() * sizeof(double)))
          << "derivativeSum " << where;
    }
  }
}

TEST(GeneralKernelStoreModes, NewviewAndDerivativeSumAreBitIdentical) {
  Rng rng(6161);
  constexpr std::int64_t kSites = 67;
  constexpr int kCodes = 24;
  const auto n = static_cast<std::size_t>(kSites);
  for (const int states : {5, 20}) {
    GeneralDims dims;
    dims.states = states;
    dims.padded = (states + 7) / 8 * 8;
    const auto block = static_cast<std::size_t>(dims.block());
    const auto padded = static_cast<std::size_t>(dims.padded);
    const auto rates = static_cast<std::size_t>(dims.rates);
    const AlignedDoubles left_cla = random_doubles(n * block, rng);
    const AlignedDoubles right_cla = random_doubles(n * block, rng);
    const auto left_scale = random_scales(n, rng);
    const auto right_scale = random_scales(n, rng);
    const auto right_codes = random_codes(n, kCodes, rng);
    const AlignedDoubles ptable_left =
        random_doubles(rates * static_cast<std::size_t>(states) * padded, rng);
    const AlignedDoubles ptable_right = random_doubles(ptable_left.size(), rng);
    const AlignedDoubles ump_right = random_doubles(kCodes * block, rng);
    const AlignedDoubles wtable = random_doubles(padded * padded, rng);
    const AlignedDoubles tipvec = random_doubles(kCodes * block, rng);

    for (const auto isa : supported_isas()) {
      const auto ops = get_general_kernel_ops(isa);
      for (const bool right_tip : {false, true}) {
        const auto newview = [&](bool stream, AlignedDoubles& out,
                                 std::vector<std::int32_t>& out_scale) {
          out.assign(n * block, 0.0);
          out_scale.assign(n, 0);
          GNewviewCtx ctx;
          ctx.parent_cla = out.data();
          ctx.parent_scale = out_scale.data();
          ctx.left = {left_cla.data(), left_scale.data(), nullptr, ptable_left.data(), nullptr};
          if (right_tip) {
            ctx.right = {nullptr, nullptr, right_codes.data(), ptable_right.data(),
                         ump_right.data()};
          } else {
            ctx.right = {right_cla.data(), right_scale.data(), nullptr, ptable_right.data(),
                         nullptr};
          }
          ctx.wtable = wtable.data();
          ctx.dims = dims;
          ctx.end = kSites;
          ctx.tuning = store_mode(stream);
          ops.newview(ctx);
        };
        const auto derivative_sum = [&](bool stream, AlignedDoubles& out) {
          out.assign(n * block, 0.0);
          GSumCtx ctx;
          ctx.sum = out.data();
          ctx.left_cla = left_cla.data();
          if (right_tip) {
            ctx.right_codes = right_codes.data();
            ctx.tipvec = tipvec.data();
          } else {
            ctx.right_cla = right_cla.data();
          }
          ctx.dims = dims;
          ctx.end = kSites;
          ctx.tuning = store_mode(stream);
          ops.derivative_sum(ctx);
        };
        const std::string where = simd::to_string(isa) + " S=" + std::to_string(states) +
                                  (right_tip ? " tipR" : " innerR");
        AlignedDoubles plain, streamed;
        std::vector<std::int32_t> plain_scale, streamed_scale;
        newview(false, plain, plain_scale);
        newview(true, streamed, streamed_scale);
        EXPECT_EQ(0, std::memcmp(plain.data(), streamed.data(), plain.size() * sizeof(double)))
            << "newview " << where;
        EXPECT_EQ(plain_scale, streamed_scale) << "newview " << where;
        derivative_sum(false, plain);
        derivative_sum(true, streamed);
        EXPECT_EQ(0, std::memcmp(plain.data(), streamed.data(), plain.size() * sizeof(double)))
            << "derivativeSum " << where;
      }
    }
  }
}

TEST(KernelDispatch, ScalarAlwaysAvailable) {
  const auto ops = get_kernel_ops(simd::Isa::kScalar);
  EXPECT_EQ(ops.isa, simd::Isa::kScalar);
  EXPECT_NE(ops.newview, nullptr);
  EXPECT_NE(ops.evaluate, nullptr);
  EXPECT_NE(ops.derivative_sum, nullptr);
  EXPECT_NE(ops.derivative_core, nullptr);
}

TEST(KernelDispatch, BestIsaIsUsable) {
  const auto isa = simd::best_supported_isa();
  EXPECT_NO_THROW(get_kernel_ops(isa));
}

TEST(KernelConstants, ScalingThresholdsAreConsistent) {
  EXPECT_DOUBLE_EQ(kScaleThreshold * kScaleFactor, 1.0);
  EXPECT_NEAR(kLogScaleThreshold, std::log(kScaleThreshold), 1e-12);
}

}  // namespace
}  // namespace miniphi::core
