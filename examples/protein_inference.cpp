// Protein ML inference — the paper's first future-work item (Section VII:
// "support protein data"), running on the general-state-count engine.
//
// Reads a protein FASTA (or simulates a demo dataset), optimizes branch
// lengths and the Γ shape, runs the SPR search, and writes the best tree.
// The substitution matrix is Poisson by default or any empirical matrix in
// PAML .dat format via --matrix (WAG/LG/JTT files work as distributed).
//
// Run:  ./protein_inference proteins.fasta --matrix wag.dat --out best.nwk
//       ./protein_inference --demo
#include <cstdio>
#include <fstream>

#include "src/miniphi.hpp"

int main(int argc, char** argv) {
  using namespace miniphi;
  try {
    const Options options(argc, argv);
    const std::uint64_t seed = static_cast<std::uint64_t>(options.get_int("seed", 42));
    const std::string matrix_path = options.get_string("matrix", "");
    const std::string out_path = options.get_string("out", "best_protein_tree.nwk");
    const bool demo = options.get_bool("demo", false);

    // Model: empirical matrix from PAML file, or Poisson.
    model::GeneralModel model =
        matrix_path.empty()
            ? model::GeneralModel::poisson(bio::kAaStates, 1.0)
            : model::GeneralModel::from_paml_file(matrix_path, bio::kAaStates, 1.0);
    std::printf("substitution matrix: %s\n",
                matrix_path.empty() ? "Poisson (uniform)" : matrix_path.c_str());

    // Data: file or simulated demo.
    Rng rng(seed);
    bio::ProteinAlignment alignment = [&] {
      if (!options.positional().empty()) {
        return bio::ProteinAlignment(io::read_fasta_file(options.positional().front()));
      }
      MINIPHI_CHECK(demo, "no input file given; pass a protein FASTA or use --demo");
      std::printf("no input file: simulating a 10-taxon, 600-residue demo dataset\n");
      tree::Tree truth = simulate::yule_tree(10, rng, 0.7);
      return simulate::simulate_protein_alignment(truth, model.with_alpha(0.8), 600, rng);
    }();

    const auto patterns = bio::compress_protein_patterns(alignment);
    std::printf("alignment: %zu taxa x %zu residues -> %zu patterns\n", alignment.taxon_count(),
                alignment.site_count(), patterns.pattern_count());

    const auto masks = bio::aa_code_masks();
    tree::Tree tree = tree::parsimony_starting_tree(patterns, rng, masks);
    const auto evaluator = core::make_evaluator(patterns, model, tree, masks);
    std::printf("kernels: %s, %d states padded to %d\n",
                simd::to_string(evaluator->isa()).c_str(), model.states(),
                model.padded_states());

    Timer timer;
    search::SearchOptions search_options;  // α optimized via the generic hook
    const auto result = search::run_tree_search(*evaluator, tree, search_options);
    std::printf("search: %d round(s), %d accepted move(s); lnL %.4f (alpha %.3f, %.2f s)\n",
                result.rounds, result.accepted_moves, result.log_likelihood, evaluator->alpha(),
                timer.seconds());

    std::ofstream out(out_path);
    out << tree.to_newick(alignment.taxon_names()) << "\n";
    std::printf("best tree written to %s\n", out_path.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
