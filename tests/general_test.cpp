// Tests for the general-state-count path (protein support): the
// GeneralModel, amino-acid encoding, protein alignments, the general
// kernels/engine (cross-validated against both the DNA fast path and an
// independent brute-force implementation), and protein tree search.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <sstream>

#include "src/bio/aa.hpp"
#include "src/bio/protein_alignment.hpp"
#include "src/core/engine.hpp"
#include "src/core/general/general_engine.hpp"
#include "src/model/general.hpp"
#include "src/search/model_optimizer.hpp"
#include "src/search/spr_search.hpp"
#include "src/simulate/simulate.hpp"
#include "src/tree/parsimony.hpp"
#include "src/tree/splits.hpp"
#include "src/util/cancellation.hpp"
#include "src/util/error.hpp"
#include "tests/testutil.hpp"

namespace miniphi {
namespace {

using core::GeneralEngine;
using model::GeneralModel;

/// Random reversible general model with S states.
GeneralModel random_general_model(int states, Rng& rng) {
  const auto pairs =
      static_cast<std::size_t>(states) * (static_cast<std::size_t>(states) - 1) / 2;
  std::vector<double> exchangeabilities(pairs);
  for (auto& rate : exchangeabilities) rate = rng.uniform(0.3, 3.0);
  std::vector<double> freqs(static_cast<std::size_t>(states));
  double sum = 0.0;
  for (auto& f : freqs) {
    f = rng.uniform(0.2, 1.0);
    sum += f;
  }
  for (auto& f : freqs) f /= sum;
  return GeneralModel(states, std::move(exchangeabilities), std::move(freqs),
                      rng.uniform(0.3, 2.0));
}

/// Random protein pattern set (dense codes incl. ambiguity classes).
bio::PatternSet random_protein_patterns(int ntaxa, int nsites, Rng& rng,
                                        double ambiguity_fraction = 0.05) {
  std::vector<std::string> names;
  std::vector<std::vector<bio::AaCode>> rows;
  for (int t = 0; t < ntaxa; ++t) {
    names.push_back("t" + std::to_string(t));
    std::vector<bio::AaCode> row(static_cast<std::size_t>(nsites));
    for (auto& code : row) {
      if (rng.uniform() < ambiguity_fraction) {
        code = static_cast<bio::AaCode>(bio::kAaStates + rng.below(3));
      } else {
        code = static_cast<bio::AaCode>(rng.below(bio::kAaStates));
      }
    }
    rows.push_back(std::move(row));
  }
  return bio::compress_protein_patterns(bio::ProteinAlignment(std::move(names), std::move(rows)));
}

/// Brute-force Felsenstein likelihood for an arbitrary-state model, in
/// probability space — independent of the eigenspace kernels.
double general_brute_force(const tree::Tree& tree, const bio::PatternSet& patterns,
                           const GeneralModel& model,
                           const std::vector<std::uint32_t>& masks) {
  const int states = model.states();
  const std::size_t npat = patterns.pattern_count();
  const auto& rates = model.gamma_rates();
  using Cond = std::vector<std::vector<double>>;  // [pattern][rate*states + i]

  const std::function<Cond(const tree::Slot*)> down = [&](const tree::Slot* slot) -> Cond {
    Cond out(npat, std::vector<double>(static_cast<std::size_t>(4 * states), 0.0));
    if (slot->is_tip()) {
      const auto& codes = patterns.tip_rows[static_cast<std::size_t>(slot->node_id)];
      for (std::size_t s = 0; s < npat; ++s) {
        for (int c = 0; c < 4; ++c) {
          for (int i = 0; i < states; ++i) {
            if (masks[codes[s]] & (1u << i)) {
              out[s][static_cast<std::size_t>(c * states + i)] = 1.0;
            }
          }
        }
      }
      return out;
    }
    const Cond left = down(slot->child1());
    const Cond right = down(slot->child2());
    for (int c = 0; c < 4; ++c) {
      const auto p1 =
          model.transition_matrix(slot->next->length, rates[static_cast<std::size_t>(c)]);
      const auto p2 = model.transition_matrix(slot->next->next->length,
                                              rates[static_cast<std::size_t>(c)]);
      for (std::size_t s = 0; s < npat; ++s) {
        for (int i = 0; i < states; ++i) {
          double a = 0.0;
          double b = 0.0;
          for (int j = 0; j < states; ++j) {
            a += p1(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
                 left[s][static_cast<std::size_t>(c * states + j)];
            b += p2(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
                 right[s][static_cast<std::size_t>(c * states + j)];
          }
          out[s][static_cast<std::size_t>(c * states + i)] = a * b;
        }
      }
    }
    return out;
  };

  const tree::Slot* root = tree.tip(0);
  const Cond below = down(root->back);
  const auto& codes = patterns.tip_rows[0];
  const auto& pi = model.frequencies();
  double total = 0.0;
  for (std::size_t s = 0; s < npat; ++s) {
    double site = 0.0;
    for (int c = 0; c < 4; ++c) {
      const auto p = model.transition_matrix(root->length, rates[static_cast<std::size_t>(c)]);
      for (int i = 0; i < states; ++i) {
        if (!(masks[codes[s]] & (1u << i))) continue;
        double inner = 0.0;
        for (int j = 0; j < states; ++j) {
          inner += p(static_cast<std::size_t>(i), static_cast<std::size_t>(j)) *
                   below[s][static_cast<std::size_t>(c * states + j)];
        }
        site += 0.25 * pi[static_cast<std::size_t>(i)] * inner;
      }
    }
    total += patterns.weights[s] * std::log(site);
  }
  return total;
}

// ----------------------------------------------------------- GeneralModel --

class GeneralModelInvariants : public ::testing::TestWithParam<int> {};

TEST_P(GeneralModelInvariants, RateMatrixAndTransitions) {
  const int states = GetParam();
  Rng rng(100 + static_cast<std::uint64_t>(states));
  const auto model = random_general_model(states, rng);

  const auto q = model.rate_matrix();
  const auto& pi = model.frequencies();
  double mu = 0.0;
  for (int i = 0; i < states; ++i) {
    double row = 0.0;
    for (int j = 0; j < states; ++j) {
      row += q(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      // Detailed balance.
      EXPECT_NEAR(pi[static_cast<std::size_t>(i)] *
                      q(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
                  pi[static_cast<std::size_t>(j)] *
                      q(static_cast<std::size_t>(j), static_cast<std::size_t>(i)),
                  1e-10);
    }
    EXPECT_NEAR(row, 0.0, 1e-9);
    mu -= pi[static_cast<std::size_t>(i)] * q(static_cast<std::size_t>(i), static_cast<std::size_t>(i));
  }
  EXPECT_NEAR(mu, 1.0, 1e-9);

  // Stochastic transition matrices + Chapman-Kolmogorov.
  const auto p1 = model.transition_matrix(0.3);
  const auto p2 = model.transition_matrix(0.5);
  const auto p3 = model.transition_matrix(0.8);
  for (int i = 0; i < states; ++i) {
    double row = 0.0;
    for (int j = 0; j < states; ++j) {
      const double value = p1(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      EXPECT_GE(value, 0.0);
      row += value;
      double ck = 0.0;
      for (int k = 0; k < states; ++k) {
        ck += p1(static_cast<std::size_t>(i), static_cast<std::size_t>(k)) *
              p2(static_cast<std::size_t>(k), static_cast<std::size_t>(j));
      }
      EXPECT_NEAR(ck, p3(static_cast<std::size_t>(i), static_cast<std::size_t>(j)), 1e-9);
    }
    EXPECT_NEAR(row, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(States, GeneralModelInvariants, ::testing::Values(2, 4, 5, 20));

TEST(GeneralModel, MatchesGtrModelForDna) {
  Rng rng(7);
  const auto params = testutil::random_gtr_params(rng);
  const model::GtrModel dna(params);
  // GtrModel's AC,AG,AT,CG,CT,GT order IS upper-triangle row-major.
  const GeneralModel general(
      4, std::vector<double>(params.exchangeabilities.begin(), params.exchangeabilities.end()),
      std::vector<double>(params.frequencies.begin(), params.frequencies.end()), params.alpha);
  for (const double t : {0.05, 0.3, 1.2}) {
    const auto pd = dna.transition_matrix(t, 1.3);
    const auto pg = general.transition_matrix(t, 1.3);
    for (int i = 0; i < 4; ++i) {
      for (int j = 0; j < 4; ++j) {
        EXPECT_NEAR(pd[static_cast<std::size_t>(i * 4 + j)],
                    pg(static_cast<std::size_t>(i), static_cast<std::size_t>(j)), 1e-10);
      }
    }
  }
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(dna.gamma_rates()[static_cast<std::size_t>(c)],
                general.gamma_rates()[static_cast<std::size_t>(c)], 1e-12);
  }
}

TEST(GeneralModel, PamlRoundTrip) {
  // A 4-state PAML file (lower triangle by rows, then frequencies).
  std::istringstream paml(
      "1.5\n"
      "2.0 0.5\n"
      "0.8 1.2 3.0\n"
      "0.1 0.2 0.3 0.4\n");
  const auto model = GeneralModel::from_paml(paml, 4, 0.7);
  EXPECT_EQ(model.states(), 4);
  // Upper-triangle order: (0,1)=1.5 (0,2)=2.0 (0,3)=0.8 (1,2)=0.5 (1,3)=1.2 (2,3)=3.0.
  const auto& ex = model.exchangeabilities();
  EXPECT_DOUBLE_EQ(ex[0], 1.5);
  EXPECT_DOUBLE_EQ(ex[1], 2.0);
  EXPECT_DOUBLE_EQ(ex[2], 0.8);
  EXPECT_DOUBLE_EQ(ex[3], 0.5);
  EXPECT_DOUBLE_EQ(ex[4], 1.2);
  EXPECT_DOUBLE_EQ(ex[5], 3.0);
  EXPECT_DOUBLE_EQ(model.frequencies()[3], 0.4);

  std::istringstream truncated("1.0 2.0\n");
  EXPECT_THROW(GeneralModel::from_paml(truncated, 4), Error);
}

TEST(GeneralModel, PoissonIsUniform) {
  const auto model = GeneralModel::poisson(20, 1.0);
  EXPECT_EQ(model.states(), 20);
  EXPECT_EQ(model.padded_states(), 24);
  const auto p = model.transition_matrix(0.5);
  // All off-diagonal entries identical under Poisson.
  const double off = p(0, 1);
  for (int i = 0; i < 20; ++i) {
    for (int j = 0; j < 20; ++j) {
      if (i != j) {
        EXPECT_NEAR(p(static_cast<std::size_t>(i), static_cast<std::size_t>(j)), off, 1e-10);
      }
    }
  }
}

TEST(GeneralModel, WithAlphaChangesOnlyGammaRates) {
  Rng rng(9);
  const auto base = random_general_model(5, rng);
  const auto changed = base.with_alpha(2.5);
  EXPECT_DOUBLE_EQ(changed.alpha(), 2.5);
  EXPECT_NE(base.gamma_rates()[0], changed.gamma_rates()[0]);
  const auto pb = base.transition_matrix(0.4);
  const auto pc = changed.transition_matrix(0.4);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_DOUBLE_EQ(pb(static_cast<std::size_t>(i), static_cast<std::size_t>(j)),
                       pc(static_cast<std::size_t>(i), static_cast<std::size_t>(j)));
    }
  }
}

// ------------------------------------------------------------ AA encoding --

TEST(AminoAcids, EncodeDecodeRoundTrip) {
  for (int i = 0; i < bio::kAaStates; ++i) {
    const char c = bio::kAaLetters[i];
    EXPECT_EQ(bio::encode_aa(c), i);
    EXPECT_EQ(bio::encode_aa(static_cast<char>(c - 'A' + 'a')), i);
    EXPECT_EQ(bio::decode_aa(static_cast<bio::AaCode>(i)), c);
  }
  EXPECT_EQ(bio::encode_aa('B'), bio::kAaB);
  EXPECT_EQ(bio::encode_aa('Z'), bio::kAaZ);
  EXPECT_EQ(bio::encode_aa('X'), bio::kAaGap);
  EXPECT_EQ(bio::encode_aa('-'), bio::kAaGap);
  EXPECT_THROW(bio::encode_aa('J'), Error);
  EXPECT_THROW(bio::encode_aa('1'), Error);
  EXPECT_FALSE(bio::is_valid_aa('O'));
}

TEST(AminoAcids, MasksEncodeAmbiguityClasses) {
  const auto masks = bio::aa_code_masks();
  ASSERT_EQ(masks.size(), static_cast<std::size_t>(bio::kAaCodeCount));
  for (int i = 0; i < bio::kAaStates; ++i) {
    EXPECT_EQ(masks[static_cast<std::size_t>(i)], 1u << i);
  }
  EXPECT_EQ(__builtin_popcount(masks[bio::kAaB]), 2);  // N or D
  EXPECT_EQ(__builtin_popcount(masks[bio::kAaZ]), 2);  // Q or E
  EXPECT_EQ(__builtin_popcount(masks[bio::kAaGap]), 20);
  // B covers exactly N and D.
  EXPECT_TRUE(masks[bio::kAaB] & (1u << bio::encode_aa('N')));
  EXPECT_TRUE(masks[bio::kAaB] & (1u << bio::encode_aa('D')));
}

TEST(ProteinAlignment, BuildsAndCompresses) {
  io::SequenceSet records = {{"a", "ARND-XARND"}, {"b", "ARNDCQARND"}, {"c", "ARNDBZARND"}};
  bio::ProteinAlignment alignment(records);
  EXPECT_EQ(alignment.taxon_count(), 3u);
  EXPECT_EQ(alignment.site_count(), 10u);
  const auto patterns = bio::compress_protein_patterns(alignment);
  EXPECT_EQ(patterns.total_sites(), 10u);
  EXPECT_LT(patterns.pattern_count(), 10u);  // "ARND" repeats
  const auto back = alignment.to_records();
  EXPECT_EQ(back[0].sequence, "ARND--ARND");  // X reads back as gap class
  const auto freqs = alignment.empirical_frequencies();
  double sum = 0.0;
  for (const double f : freqs) sum += f;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_THROW(bio::ProteinAlignment(io::SequenceSet{{"a", "AR"}, {"b", "A"}, {"c", "AR"}}),
               Error);
}

// --------------------------------------------------------- GeneralEngine --

std::vector<simd::Isa> supported_isas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::isa_supported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  if (simd::isa_supported(simd::Isa::kAvx512)) isas.push_back(simd::Isa::kAvx512);
  return isas;
}

TEST(GeneralEngine, DnaCrossValidationAgainstFastPath) {
  // The general engine with S = 4 and DNA masks must agree with the
  // dedicated DNA engine to machine precision.
  Rng rng(21);
  const auto alignment = testutil::random_alignment(10, 250, rng, 0.08);
  const auto patterns = bio::compress_patterns(alignment);
  const auto params = testutil::random_gtr_params(rng);
  const model::GtrModel dna_model(params);
  const GeneralModel general_model(
      4, std::vector<double>(params.exchangeabilities.begin(), params.exchangeabilities.end()),
      std::vector<double>(params.frequencies.begin(), params.frequencies.end()), params.alpha);
  tree::Tree tree = tree::Tree::random(10, rng);

  core::LikelihoodEngine dna_engine(patterns, dna_model, tree);
  const double expected = dna_engine.log_likelihood(tree.tip(0));

  for (const auto isa : supported_isas()) {
    GeneralEngine::Config config;
    config.isa = isa;
    GeneralEngine engine(patterns, general_model, tree, bio::dna_code_masks(), config);
    const double actual = engine.log_likelihood(tree.tip(0));
    EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-10 + 1e-8)
        << simd::to_string(isa);
  }
}

TEST(GeneralEngine, ProteinMatchesBruteForce) {
  Rng rng(22);
  const auto patterns = random_protein_patterns(6, 60, rng);
  const auto model = random_general_model(20, rng);
  tree::Tree tree = tree::Tree::random(6, rng);
  const auto masks = bio::aa_code_masks();

  const double reference = general_brute_force(tree, patterns, model, masks);
  for (const auto isa : supported_isas()) {
    GeneralEngine::Config config;
    config.isa = isa;
    GeneralEngine engine(patterns, model, tree, masks, config);
    const double actual = engine.log_likelihood(tree.tip(0));
    EXPECT_NEAR(actual, reference, std::abs(reference) * 1e-10 + 1e-8)
        << simd::to_string(isa);
  }
}

TEST(GeneralEngine, FiveStateOddModelMatchesBruteForce) {
  // S = 5 → padded 8: exercises padding lanes specifically.
  Rng rng(23);
  const int states = 5;
  const auto model = random_general_model(states, rng);
  std::vector<std::uint32_t> masks(static_cast<std::size_t>(states) + 1);
  for (int i = 0; i < states; ++i) masks[static_cast<std::size_t>(i)] = 1u << i;
  masks[static_cast<std::size_t>(states)] = (1u << states) - 1;  // gap code

  bio::PatternSet patterns;
  const int ntaxa = 7;
  const int npat = 40;
  patterns.tip_rows.assign(ntaxa, {});
  for (int t = 0; t < ntaxa; ++t) {
    for (int s = 0; s < npat; ++s) {
      patterns.tip_rows[static_cast<std::size_t>(t)].push_back(
          static_cast<std::uint8_t>(rng.below(static_cast<std::uint64_t>(states) + 1)));
    }
  }
  patterns.weights.assign(npat, 1);
  for (int s = 0; s < npat; ++s) {
    patterns.site_to_pattern.push_back(static_cast<std::uint32_t>(s));
  }

  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  const double reference = general_brute_force(tree, patterns, model, masks);
  for (const auto isa : supported_isas()) {
    GeneralEngine::Config config;
    config.isa = isa;
    GeneralEngine engine(patterns, model, tree, masks, config);
    EXPECT_NEAR(engine.log_likelihood(tree.tip(0)), reference,
                std::abs(reference) * 1e-10 + 1e-8)
        << simd::to_string(isa);
  }
}

TEST(GeneralEngine, VirtualRootInvarianceProtein) {
  Rng rng(24);
  const auto patterns = random_protein_patterns(8, 50, rng);
  const auto model = GeneralModel::poisson(20, 0.8);
  tree::Tree tree = tree::Tree::random(8, rng);
  GeneralEngine engine(patterns, model, tree, bio::aa_code_masks());
  const double reference = engine.log_likelihood(tree.tip(0));
  for (tree::Slot* edge : tree.edges()) {
    EXPECT_NEAR(engine.log_likelihood(edge), reference, std::abs(reference) * 1e-11 + 1e-9);
  }
}

TEST(GeneralEngine, DerivativesMatchFiniteDifferences) {
  Rng rng(25);
  const auto patterns = random_protein_patterns(6, 40, rng);
  const auto model = random_general_model(20, rng);
  tree::Tree tree = tree::Tree::random(6, rng);
  GeneralEngine engine(patterns, model, tree, bio::aa_code_masks());

  tree::Slot* edge = tree.tip(2);
  engine.prepare_derivatives(edge);
  const double z = edge->length;
  const auto [first, second] = engine.derivatives(z);

  const double h = 1e-6;
  const auto eval_at = [&](double value) {
    tree::Tree::set_length(edge, value);
    const double result = engine.log_likelihood(edge);
    tree::Tree::set_length(edge, z);
    return result;
  };
  EXPECT_NEAR(first, (eval_at(z + h) - eval_at(z - h)) / (2 * h),
              1e-3 * (1.0 + std::abs(first)));
  const double h2 = 1e-4;
  EXPECT_NEAR(second,
              (eval_at(z + h2) - 2 * eval_at(z) + eval_at(z - h2)) / (h2 * h2),
              2e-2 * (1.0 + std::abs(second)));
}

TEST(GeneralEngine, ScalingOnDeepProteinTrees) {
  Rng rng(26);
  const int ntaxa = 300;
  const auto patterns = random_protein_patterns(ntaxa, 4, rng, 0.0);
  const auto model = GeneralModel::poisson(20, 1.0);
  tree::Tree tree = tree::Tree::random(ntaxa, rng);
  GeneralEngine engine(patterns, model, tree, bio::aa_code_masks());
  const double value = engine.log_likelihood(tree.tip(0));
  EXPECT_TRUE(std::isfinite(value));
  EXPECT_LT(value, 0.0);
}

TEST(GeneralEngine, AlphaOptimizationViaEvaluatorInterface) {
  Rng rng(27);
  tree::Tree true_tree = simulate::yule_tree(8, rng, 0.8);
  const auto true_model = GeneralModel::poisson(20, 0.5);
  const auto alignment = simulate::simulate_protein_alignment(true_tree, true_model, 800, rng);
  const auto patterns = bio::compress_protein_patterns(alignment);

  tree::Tree tree(true_tree);
  GeneralEngine engine(patterns, GeneralModel::poisson(20, 3.0), tree, bio::aa_code_masks());
  (void)engine.optimize_all_branches(tree.tip(0), 3);
  const auto result = search::optimize_alpha(engine, tree.tip(0));
  EXPECT_GT(result.evaluations, 3);
  EXPECT_GT(engine.alpha(), 0.25);
  EXPECT_LT(engine.alpha(), 1.2);
}

TEST(GeneralEngine, ProteinTreeSearchRecoversTopology) {
  // End-to-end: SPR search over the Evaluator interface on protein data.
  Rng rng(28);
  tree::Tree true_tree = simulate::yule_tree(7, rng, 0.8);
  const auto model = GeneralModel::poisson(20, 1.0);
  const auto alignment = simulate::simulate_protein_alignment(true_tree, model, 1200, rng);
  const auto patterns = bio::compress_protein_patterns(alignment);

  tree::Tree tree = tree::Tree::random(7, rng);
  GeneralEngine engine(patterns, model, tree, bio::aa_code_masks());
  search::SearchOptions options;
  options.optimize_model = false;
  const auto result = search::run_tree_search(engine, tree, options);
  EXPECT_LT(result.log_likelihood, 0.0);

  // The searched tree must match the generating topology or at least reach
  // the true tree's (branch-optimized) likelihood — on finite data the ML
  // tree can legitimately differ from the truth by a short branch.
  tree::Tree reference(true_tree);
  GeneralEngine reference_engine(patterns, model, reference, bio::aa_code_masks());
  const double reference_lnl = reference_engine.optimize_all_branches(reference.tip(0), 8);
  EXPECT_LE(tree::robinson_foulds(tree, true_tree), 2);
  EXPECT_GE(result.log_likelihood, reference_lnl - 0.1);
}

TEST(GeneralEngine, OpenMpHybridModeMatchesSerial) {
  // The ExaML-MIC hybrid scheme (Section V-D) applied to the protein path.
  Rng rng(41);
  const auto patterns = random_protein_patterns(8, 300, rng);
  const auto model = random_general_model(20, rng);
  tree::Tree tree = tree::Tree::random(8, rng);

  GeneralEngine serial(patterns, model, tree, bio::aa_code_masks());
  GeneralEngine::Config parallel_config;
  parallel_config.use_openmp = true;
  GeneralEngine parallel(patterns, model, tree, bio::aa_code_masks(), parallel_config);

  const double a = serial.log_likelihood(tree.tip(0));
  const double b = parallel.log_likelihood(tree.tip(0));
  EXPECT_NEAR(a, b, std::abs(a) * 1e-11 + 1e-9);

  tree::Slot* edge = tree.tip(2);
  serial.prepare_derivatives(edge);
  parallel.prepare_derivatives(edge);
  const auto [s1, s2] = serial.derivatives(edge->length);
  const auto [p1, p2] = parallel.derivatives(edge->length);
  EXPECT_NEAR(s1, p1, std::abs(s1) * 1e-10 + 1e-8);
  EXPECT_NEAR(s2, p2, std::abs(s2) * 1e-10 + 1e-8);
}

TEST(GeneralEngine, RejectsGeometryErrors) {
  Rng rng(29);
  const auto patterns = random_protein_patterns(4, 10, rng);
  const auto model = random_general_model(20, rng);
  tree::Tree tree = tree::Tree::random(4, rng);
  // Mask table too small for the codes present.
  EXPECT_THROW(GeneralEngine(patterns, model, tree, std::vector<std::uint32_t>(3, 1u)), Error);
  // Mask referencing nonexistent states.
  auto bad_masks = bio::aa_code_masks();
  bad_masks[0] = 1u << 25;
  EXPECT_THROW(GeneralEngine(patterns, model, tree, bad_masks), Error);
}

TEST(GeneralEngine, CancellationReleasesPinsAndLeavesTheEngineReusable) {
  // EngineConfig::cancel holds for every family and every budget: at the
  // minimum working set with spill on and at the full budget, a token
  // tripped mid-traversal unwinds log_likelihood with CancelledError, every
  // pin the plan executor took is dropped on the way out, and the engine's
  // next (uncancelled) call matches a fresh engine bit for bit.
  Rng rng(44);
  const auto patterns = random_protein_patterns(12, 60, rng);
  const auto model = random_general_model(20, rng);
  tree::Tree tree = tree::Tree::random(12, rng);
  const int inner = tree.inner_count();
  GeneralEngine fresh(patterns, model, tree, bio::aa_code_masks());
  for (const bool floor : {true, false}) {
    SCOPED_TRACE(floor ? "floor budget" : "full budget");
    CancelToken token;
    token.arm_trip_after(3);
    GeneralEngine::Config config;
    if (floor) {
      config.cla_budget_bytes =
          core::min_cla_buffers(inner) * (fresh.cla_bytes_granted() / inner);
      config.cla_spill = true;
    }
    config.cancel = &token;
    GeneralEngine engine(patterns, model, tree, bio::aa_code_masks(), config);
    EXPECT_THROW((void)engine.log_likelihood(tree.tip(0)), CancelledError);
    const memory::ClaStore& store = engine.cla_store();
    for (int slot = 0; slot < store.slot_count(); ++slot) {
      EXPECT_EQ(store.pin_count(slot), 0) << "slot " << slot;
    }

    token.reset();
    EXPECT_EQ(engine.log_likelihood(tree.tip(0)), fresh.log_likelihood(tree.tip(0)));
  }
}

TEST(GeneralSimulator, ProteinCompositionMatchesFrequencies) {
  Rng rng(30);
  tree::Tree tree = simulate::yule_tree(10, rng, 0.5);
  auto model = random_general_model(20, rng);
  const auto alignment = simulate::simulate_protein_alignment(tree, model, 20000, rng);
  const auto freqs = alignment.empirical_frequencies();
  for (int i = 0; i < 20; ++i) {
    EXPECT_NEAR(freqs[static_cast<std::size_t>(i)],
                model.frequencies()[static_cast<std::size_t>(i)], 0.02)
        << "state " << i;
  }
}

}  // namespace
}  // namespace miniphi
