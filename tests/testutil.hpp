// Shared helpers for the miniphi test suite.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

#include "src/bio/alignment.hpp"
#include "src/bio/patterns.hpp"
#include "src/model/gtr.hpp"
#include "src/tree/tree.hpp"
#include "src/util/rng.hpp"

namespace miniphi::testutil {

/// Random DNA alignment (pure A/C/G/T plus optional ambiguity fraction).
inline bio::Alignment random_alignment(int ntaxa, int nsites, Rng& rng,
                                       double ambiguity_fraction = 0.0) {
  static const char kBases[] = {'A', 'C', 'G', 'T'};
  static const char kAmbiguous[] = {'N', '-', 'R', 'Y', 'W', 'S'};
  io::SequenceSet records;
  for (int t = 0; t < ntaxa; ++t) {
    std::string seq;
    seq.reserve(static_cast<std::size_t>(nsites));
    for (int s = 0; s < nsites; ++s) {
      if (ambiguity_fraction > 0.0 && rng.uniform() < ambiguity_fraction) {
        seq.push_back(kAmbiguous[rng.below(6)]);
      } else {
        seq.push_back(kBases[rng.below(4)]);
      }
    }
    records.push_back({"taxon" + std::to_string(t), std::move(seq)});
  }
  return bio::Alignment(records);
}

/// Random valid GTR parameters.
inline model::GtrParams random_gtr_params(Rng& rng) {
  model::GtrParams params;
  for (auto& rate : params.exchangeabilities) rate = rng.uniform(0.3, 3.0);
  params.exchangeabilities.back() = 1.0;
  double sum = 0.0;
  for (auto& freq : params.frequencies) {
    freq = rng.uniform(0.1, 1.0);
    sum += freq;
  }
  for (auto& freq : params.frequencies) freq /= sum;
  params.alpha = rng.uniform(0.2, 2.5);
  return params;
}

/// Prints `value` the way gtest prints a type that has no printer
/// ("8-byte object <02-00 00-00 01-00 00-00>"), with every padding byte
/// printed as 00.  gtest's own dump shows whatever memory the padding
/// held, so a listed test name built from it differs from one listing to
/// the next; this keeps the name's registered form and makes it stable.
/// `set_fields` copies the fields into storage that starts zeroed.
template <typename T, typename SetFields>
void print_zero_padded_bytes(SetFields set_fields, std::ostream* os) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value;
  std::memset(static_cast<void*>(&value), 0, sizeof value);
  set_fields(value);
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof value);
  *os << sizeof(T) << "-byte object <";
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    *os << hex;
  }
  *os << '>';
}

/// Taxon names t0..t{n-1} for Newick round trips.
inline std::vector<std::string> taxon_names(int ntaxa) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(ntaxa));
  for (int i = 0; i < ntaxa; ++i) names.push_back("t" + std::to_string(i));
  return names;
}

/// Brute-force Felsenstein pruning in probability space — an independent
/// reference for the engine's eigenspace computation.  O(sites · nodes · 16)
/// with plain transition matrices from the model; no scaling (use short
/// trees / few taxa so no underflow occurs).
double brute_force_log_likelihood(const tree::Tree& tree, const bio::PatternSet& patterns,
                                  const model::GtrModel& model);

}  // namespace miniphi::testutil
