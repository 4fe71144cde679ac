// Raman spectra of (a) a protein in the gas phase, (b) a pure water box,
// and (c) the protein solvated in that box — the scaled-down analogue of
// paper Fig. 12(b), which shows the protein signal being obscured by the
// water bands except for the C-H stretch marker around 2900 cm^-1.
//
// Usage: solvated_protein [residues=40] [box_edge_angstrom=34]

#include <cstdio>
#include <cstdlib>

#include "qfr/chem/protein.hpp"
#include "qfr/qframan/workflow.hpp"

namespace {

qfr::qframan::WorkflowResult run(const qfr::frag::BioSystem& system,
                                 const char* label,
                                 bool with_cache = false) {
  qfr::qframan::WorkflowOptions options;
  options.sigma_cm = 20.0;  // paper: 20 cm^-1 smearing for solvated systems
  options.omega_max_cm = 4000.0;
  options.n_leaders = 4;
  options.lanczos_steps = 180;
  options.cache.enabled = with_cache;
  auto result = qfr::qframan::RamanWorkflow(options).run(system);
  std::printf("%-18s %8zu atoms, %6zu fragments, %5zu ww-pairs, %s\n", label,
              system.n_atoms(), result.fragmentation_stats.total_fragments,
              result.fragmentation_stats.n_water_water_pairs,
              result.used_lanczos ? "lanczos" : "exact");
  return result;
}

double band(const qfr::spectra::RamanSpectrum& s, double lo, double hi) {
  double acc = 0.0;
  for (std::size_t i = 0; i < s.omega_cm.size(); ++i)
    if (s.omega_cm[i] >= lo && s.omega_cm[i] <= hi) acc += s.intensity[i];
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qfr;
  const std::size_t residues =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 40;
  const double edge = argc > 2 ? std::strtod(argv[2], nullptr) : 34.0;

  chem::ProteinBuildOptions popts;
  popts.n_residues = residues;
  popts.seed = 99;
  const chem::Protein protein = chem::build_synthetic_protein(popts);

  chem::WaterBoxOptions wopts;
  wopts.edge_angstrom = edge;

  // (a) gas-phase protein.
  frag::BioSystem gas;
  gas.chains.push_back(protein);
  const auto s_gas = run(gas, "protein (gas)").spectrum;

  // (b) pure water box.
  frag::BioSystem water_only;
  water_only.waters = chem::build_water_box(wopts, chem::Molecule{});
  const auto s_wat = run(water_only, "water box").spectrum;

  // (c) protein + explicit water (water sites clash-excluded).
  frag::BioSystem solvated;
  solvated.chains.push_back(protein);
  solvated.waters = chem::build_water_box(wopts, protein.mol);
  const auto r_sol = run(solvated, "protein + water");
  const auto& s_sol = r_sol.spectrum;

  std::printf("\nband integrals (arbitrary units)\n");
  std::printf("%-24s %12s %12s %12s\n", "band", "protein", "water",
              "prot+water");
  struct B {
    const char* name;
    double lo, hi;
  };
  for (const B b : {B{"low freq (<600)", 10.0, 600.0},
                    B{"bend ~1650", 1500.0, 1800.0},
                    B{"C-H stretch ~2900", 2800.0, 3050.0},
                    B{"O-H stretch ~3400", 3200.0, 3800.0}}) {
    std::printf("%-24s %12.3g %12.3g %12.3g\n", b.name, band(s_gas, b.lo, b.hi),
                band(s_wat, b.lo, b.hi), band(s_sol, b.lo, b.hi));
  }
  std::printf(
      "\nAs in paper Fig. 12(b): the solvated spectrum is dominated by the\n"
      "water bands, while the protein C-H stretch near 2900 cm^-1 remains\n"
      "a discernible marker (water has no C-H bonds).\n");

  // Result-cache demo: the box's water monomers are rigid copies of one
  // geometry, so re-running the solvated system with the cache enabled
  // serves them (and every repeated pair geometry) without recomputing.
  std::printf("\n=== result cache (solvated re-run) ===\n");
  const auto r_cached = run(solvated, "protein + water", /*with_cache=*/true);
  const std::size_t n_frag = r_cached.sweep.n_fragments;
  const double hit_rate =
      n_frag > 0 ? static_cast<double>(r_cached.sweep.n_reuse_exact) /
                       static_cast<double>(n_frag)
                 : 0.0;
  std::printf("sweep wall: uncached %.3f s, cached %.3f s (delta %+.3f s)\n",
              r_sol.engine_seconds, r_cached.engine_seconds,
              r_cached.engine_seconds - r_sol.engine_seconds);
  std::printf("cache hits: %zu / %zu fragments\n", r_cached.sweep.n_reuse_exact,
              n_frag);
  std::printf("cache_hit_rate=%.4f\n", hit_rate);
  return 0;
}
