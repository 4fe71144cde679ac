// Shared pieces of the QF-RAMAN benchmark program: workload definitions,
// the per-seed reference, job checks, and small measurement helpers.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "qfr/engine/fragment_engine.hpp"
#include "qfr/frag/fragmentation.hpp"
#include "qfr/qframan/workflow.hpp"

namespace qfbench {

/// One named workload: the options handed to qframan::RamanWorkflow and
/// the inputs it runs on, all made from the seed. Jobs cycle through
/// `systems` (water monomers, water boxes, or one solvated protein).
struct Workload {
  std::string name;
  qfr::qframan::WorkflowOptions options;
  std::vector<qfr::frag::BioSystem> systems;
  /// Parameters echoed into the run metadata.
  std::map<std::string, std::string> params;
};

/// Names of every workload the program runs; BENCHMARK.json lists all but
/// screening_process (see qfbench/spec.json).
const std::vector<std::string>& workload_names();

/// Build the workload's inputs and workflow options from `seed` (input
/// generation and object construction: what setup_s times).
Workload make_workload(const std::string& name, std::uint64_t seed);

/// True for the ab initio workloads (engine anatomy applies).
bool is_ab_initio(const Workload& w);

/// Reference the benchmark holds for one input: the spectrum (and global
/// properties) recomputed without fragmentation, runtime, validator or
/// cache — every covalent molecule computed whole by the workload's engine,
/// assembled as one fragment each, solved by the workload's solver.
struct Reference {
  qfr::spectra::RamanSpectrum spectrum;
  qfr::frag::GlobalProperties properties;
  /// Harmonic wavenumbers of the reference Hessian (ab initio only).
  std::vector<double> frequencies_cm;
};
Reference compute_reference(const Workload& w, std::size_t system_index);

/// References of a workload's inputs, computed on first use.
class References {
 public:
  explicit References(const Workload& w) : w_(w), refs_(w.systems.size()) {}
  const Reference& get(std::size_t system_index) {
    std::optional<Reference>& r = refs_.at(system_index);
    if (!r) r = compute_reference(w_, system_index);
    return *r;
  }

 private:
  const Workload& w_;
  std::vector<std::optional<Reference>> refs_;
};

/// The workflow's spectral-solve step (solver choice included) applied to
/// assembled properties.
qfr::spectra::RamanSpectrum solve_spectrum(
    const qfr::qframan::WorkflowOptions& options,
    const qfr::frag::GlobalProperties& props);

/// Tolerances of the output checks (also stated in qfbench/spec.json).
struct Tolerances {
  /// Relative L2 distance of a job spectrum from the reference.
  double spectrum_rel_l2;
  /// Relative distance of the assembled mass-weighted Hessian (probed
  /// with seeded vectors) and of dalpha from the reference.
  double properties_rel;
};
Tolerances tolerances(const Workload& w);

/// Check one job's output against its reference and the sweep's integrity
/// counters; returns an empty string when the job passes, else the reason.
std::string check_job(const Workload& w, const Reference& ref,
                      const qfr::qframan::WorkflowResult& result);

/// Relative L2 distance between two spectra on the same axis.
double spectrum_distance(const qfr::spectra::RamanSpectrum& a,
                         const qfr::spectra::RamanSpectrum& b);
bool bitwise_equal(const qfr::spectra::RamanSpectrum& a,
                   const qfr::spectra::RamanSpectrum& b);

/// Bench-owned timing decorator around FragmentEngine::compute: times the
/// outermost call and forwards every overload (the bond list included) to
/// the wrapped engine, whose name it keeps so cache namespaces match.
class TimedEngine : public qfr::engine::FragmentEngine {
 public:
  explicit TimedEngine(const qfr::engine::FragmentEngine& inner)
      : inner_(inner) {}
  TimedEngine(const TimedEngine&) = delete;
  TimedEngine& operator=(const TimedEngine&) = delete;

  qfr::engine::FragmentResult compute(
      const qfr::chem::Molecule& fragment) const override;
  qfr::engine::FragmentResult compute(
      std::size_t fragment_id,
      const qfr::chem::Molecule& fragment) const override;
  qfr::engine::FragmentResult compute(
      std::size_t fragment_id, const qfr::chem::Molecule& fragment,
      const std::vector<qfr::chem::Bond>& bonds) const override;
  std::string name() const override { return inner_.name(); }

  double seconds() const { return 1e-9 * static_cast<double>(ns_.load()); }
  std::size_t calls() const { return calls_.load(); }

 private:
  template <class F>
  qfr::engine::FragmentResult timed(F&& f) const;

  const qfr::engine::FragmentEngine& inner_;
  mutable std::atomic<std::int64_t> ns_{0};
  mutable std::atomic<std::size_t> calls_{0};
};

// ------------------------------------------------------------ measurement

/// Monotonic wall clock in seconds.
double now_s();
/// CPU seconds (user + system) of this process plus its reaped children.
double cpu_s();
/// Peak resident set size of this process (MiB): since the last
/// successful reset_peak_rss(), else since it started.
double peak_rss_mb();
/// Reset the peak resident set size to the current one (Linux
/// /proc/self/clear_refs); false where the kernel does not allow it.
bool reset_peak_rss();

double median(std::vector<double> v);
/// Smallest element (0 for an empty sample).
double min_of(const std::vector<double>& v);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Metrics of the traced run (per-layer ledger) for one workload.
struct TraceOutcome {
  std::vector<Metric> metrics;
  std::vector<double> job_times;  ///< untraced RamanWorkflow::run walls
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
};
TraceOutcome run_traced(const Workload& w, References& refs,
                        double seconds);

}  // namespace qfbench
