// Measures the content-addressed result cache (qfr::cache) on the
// workload it was built for: a water box whose monomers are rigid copies
// of one geometry, swept cold (empty cache: within-run dedup only) and
// warm (pre-populated cache: every compute is a hit), across quantization
// tolerances. Reports wall time, hit rate, and the cold/warm speedups
// against an uncached baseline sweep.
//
// With --json <path>, the series is additionally written as a
// qfr.bench.v1 document (the CI bench-smoke trajectory format).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "qfr/cache/store.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/engine/model_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/obs/export.hpp"
#include "qfr/runtime/master_runtime.hpp"

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<qfr::frag::Fragment> water_box_fragments(double edge_angstrom) {
  qfr::chem::WaterBoxOptions wopts;
  wopts.edge_angstrom = edge_angstrom;
  wopts.seed = 7;
  const std::vector<qfr::chem::Molecule> waters =
      qfr::chem::build_water_box(wopts, qfr::chem::Molecule{});
  std::vector<qfr::frag::Fragment> frags(waters.size());
  for (std::size_t i = 0; i < waters.size(); ++i) {
    frags[i].id = i;
    frags[i].kind = qfr::frag::FragmentKind::kWater;
    frags[i].mol = waters[i];
  }
  return frags;
}

struct SweepTiming {
  double seconds = 0.0;
  std::size_t cache_hits = 0;
};

SweepTiming run_sweep(const std::vector<qfr::frag::Fragment>& frags,
                      qfr::cache::ResultCache* cache) {
  qfr::runtime::RuntimeOptions ropts;
  ropts.n_leaders = 2;
  ropts.workers_per_leader = 2;
  ropts.cache = cache;
  const qfr::runtime::MasterRuntime rt(std::move(ropts));
  const qfr::engine::ModelEngine eng;
  const double t0 = now_seconds();
  const qfr::runtime::RunReport rep = rt.run(frags, eng);
  return {now_seconds() - t0, rep.n_reuse_exact()};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  const auto frags = water_box_fragments(14.0);
  const std::size_t n = frags.size();
  std::printf("=== Result-cache dedup: %zu-monomer water box ===\n\n", n);

  qfr::obs::BenchReport report;
  report.name = "cache_dedup";
  report.meta.emplace_back("n_fragments", std::to_string(n));
  report.meta.emplace_back("engine", "model");

  const SweepTiming baseline = run_sweep(frags, nullptr);
  std::printf("uncached baseline: %.4f s (%zu computes)\n\n", baseline.seconds,
              n);
  report.samples.push_back({"uncached.seconds", baseline.seconds, "s"});

  for (const double tol : {1e-6, 1e-4, 1e-2}) {
    qfr::cache::CacheOptions copts;
    copts.enabled = true;
    copts.tolerance = tol;
    qfr::cache::ResultCache cache(copts);

    // Cold: the cache starts empty, so the only wins are within-run
    // (single-flight plus hits once the first monomer lands). Warm: the
    // same cache swept again, where every fragment is a hit.
    const SweepTiming cold = run_sweep(frags, &cache);
    const SweepTiming warm = run_sweep(frags, &cache);
    const qfr::cache::CacheStats stats = cache.stats();
    const double cold_rate = static_cast<double>(cold.cache_hits) /
                             static_cast<double>(n);
    const double warm_rate = static_cast<double>(warm.cache_hits) /
                             static_cast<double>(n);

    std::printf("tolerance %.0e\n", tol);
    std::printf("  cold: %.4f s, %zu/%zu hits (%.0f%%), speedup %.1fx\n",
                cold.seconds, cold.cache_hits, n, 100.0 * cold_rate,
                baseline.seconds / cold.seconds);
    std::printf("  warm: %.4f s, %zu/%zu hits (%.0f%%), speedup %.1fx\n",
                warm.seconds, warm.cache_hits, n, 100.0 * warm_rate,
                baseline.seconds / warm.seconds);
    std::printf("  cache: %zu entries, %zu bytes\n\n", stats.entries,
                stats.bytes);

    char prefix[32];
    std::snprintf(prefix, sizeof(prefix), "tol_%.0e", tol);
    const std::string p(prefix);
    report.samples.push_back({p + ".cold.seconds", cold.seconds, "s"});
    report.samples.push_back({p + ".cold.hit_rate", cold_rate, ""});
    report.samples.push_back(
        {p + ".cold.speedup", baseline.seconds / cold.seconds, "x"});
    report.samples.push_back({p + ".warm.seconds", warm.seconds, "s"});
    report.samples.push_back({p + ".warm.hit_rate", warm_rate, ""});
    report.samples.push_back(
        {p + ".warm.speedup", baseline.seconds / warm.seconds, "x"});
    report.samples.push_back(
        {p + ".bytes", static_cast<double>(stats.bytes), "B"});
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os.good()) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   json_path.c_str());
      return 1;
    }
    qfr::obs::write_bench_json(os, report);
    std::printf("bench JSON written to %s\n", json_path.c_str());
  }
  return 0;
}
