// The traced run: a per-layer ledger of one workload, measured from
// outside the program. Each iteration runs one untraced
// RamanWorkflow::run, then recomposes the same job from the modules'
// public entry points (part -> runtime -> frag assembly -> spectra) with a
// timer around each call, and checks that both give the same spectrum.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hpp"
#include "qfr/cache/canonical.hpp"
#include "qfr/cache/store.hpp"
#include "qfr/dfpt/response.hpp"
#include "qfr/engine/scf_engine.hpp"
#include "qfr/fault/validator.hpp"
#include "qfr/integrals/gradients.hpp"
#include "qfr/la/batched_executor.hpp"
#include "qfr/part/policy.hpp"
#include "qfr/runtime/master_runtime.hpp"
#include "qfr/scf/scf.hpp"

namespace qfbench {

namespace {

using qfr::engine::FragmentResult;
using qfr::frag::Fragment;
using qfr::qframan::WorkflowOptions;

// The runtime configuration RamanWorkflow::run builds from its options.
qfr::runtime::RuntimeOptions runtime_options(
    const WorkflowOptions& o, const qfr::fault::FragmentResultValidator& v,
    qfr::cache::ResultCache* cache, qfr::runtime::TransportKind transport) {
  qfr::runtime::RuntimeOptions r;
  r.n_leaders = o.n_leaders;
  r.workers_per_leader = o.workers_per_leader;
  r.straggler_timeout = o.straggler_timeout;
  r.max_retries = o.max_retries;
  r.abort_on_failure = false;
  if (o.validate_results) r.validator = &v;
  r.cache = cache;
  r.transport = transport;
  r.supervision.enabled = o.supervise;
  r.supervision.heartbeat_timeout = o.heartbeat_timeout;
  r.supervision.poll_interval = o.supervisor_poll_interval;
  return r;
}

// Per-job time of the four SCF-engine stages, estimated from the
// equilibrium and six displaced geometries of the fragment, each call
// timed with the options ScfEngine uses, then scaled by the engine's call
// counts.
struct Anatomy {
  double build = 0.0, solve = 0.0, gradient = 0.0, polarizability = 0.0;
  double scf_iterations = 0.0, dfpt_iterations = 0.0;
};

Anatomy engine_anatomy(const WorkflowOptions& o, const Fragment& f,
                       const FragmentResult& res) {
  const qfr::engine::ScfEngineOptions eopts;
  const bool hf = o.engine == qfr::qframan::EngineKind::kScfHf;
  const qfr::scf::XcModel xc =
      hf ? qfr::scf::XcModel::kHartreeFock : qfr::scf::XcModel::kLda;
  const std::size_t dim = 3 * f.mol.size();
  const auto policy = o.batched_gemm
                          ? qfr::la::BatchedExecutor::Policy::kBatched
                          : qfr::la::BatchedExecutor::Policy::kEager;

  struct Point {
    double build, solve, gradient, pol;
    int scf_it, dfpt_it;
    qfr::la::Matrix density;
  };
  auto point = [&](const qfr::chem::Molecule& mol,
                   const qfr::la::Matrix* warm) {
    Point p{};
    double t = now_s();
    auto ctx = std::make_shared<qfr::scf::ScfContext>(
        qfr::scf::ScfContext::build(mol));
    p.build = now_s() - t;
    qfr::la::BatchedExecutor exec(policy);
    qfr::scf::ScfOptions sopts;
    sopts.xc = xc;
    sopts.energy_tolerance = 1e-12;
    sopts.commutator_tolerance = 1e-9;
    sopts.batched = o.batched_gemm;
    sopts.batch = &exec;
    t = now_s();
    const qfr::scf::ScfSolver solver(ctx, sopts);
    const qfr::scf::ScfResult scf = solver.solve(warm);
    p.solve = now_s() - t;
    p.scf_it = scf.iterations;
    if (hf && warm != nullptr) {
      t = now_s();
      const qfr::la::Vector g = qfr::ints::rhf_gradient(*ctx, scf);
      p.gradient = now_s() - t;
      (void)g;
    }
    qfr::dfpt::DfptOptions dopts;
    if (warm != nullptr) dopts.tolerance = 1e-10;
    dopts.batched = o.batched_gemm;
    dopts.batch = &exec;
    t = now_s();
    qfr::dfpt::ResponseEngine engine(ctx, scf, xc, dopts);
    const qfr::dfpt::PolarizabilityResult pol = engine.polarizability();
    p.pol = now_s() - t;
    p.dfpt_it = pol.total_iterations;
    p.density = scf.density;
    return p;
  };

  // Six displaced geometries per fragment; the median of each stage is
  // the per-call estimate.
  const Point eq = point(f.mol, nullptr);
  std::vector<double> build, solve, gradient, pol, scf_it, dfpt_it;
  for (std::size_t k = 0; k < 6; ++k) {
    const std::size_t coord = (f.id + k * dim / 6) % dim;
    qfr::geom::Vec3 delta;
    delta[static_cast<int>(coord % 3)] = eopts.displacement;
    const Point p = point(f.mol.displaced(coord / 3, delta), &eq.density);
    build.push_back(p.build);
    solve.push_back(p.solve);
    gradient.push_back(p.gradient);
    pol.push_back(p.pol);
    scf_it.push_back(p.scf_it);
    dfpt_it.push_back(p.dfpt_it);
  }

  // ScfEngine: every displaced geometry builds a context and solves SCF;
  // the 2*dim single displacements also run DFPT; in gradient mode every
  // displaced geometry evaluates the analytic gradient.
  const double d = static_cast<double>(res.displacement_tasks);
  const double singles = 2.0 * static_cast<double>(dim);
  Anatomy a;
  a.build = eq.build + d * median(build);
  a.solve = eq.solve + d * median(solve);
  a.gradient = hf ? d * median(gradient) : 0.0;
  a.polarizability = eq.pol + singles * median(pol);
  a.scf_iterations = eq.scf_it + d * median(scf_it);
  a.dfpt_iterations = eq.dfpt_it + singles * median(dfpt_it);
  return a;
}

std::string sweep_integrity(const qfr::runtime::RunReport& rep) {
  if (rep.n_failed() > 0 || rep.n_degraded() > 0)
    return "sweep: " + std::to_string(rep.n_failed()) + " failed, " +
           std::to_string(rep.n_degraded()) + " degraded";
  return {};
}

// Samples of the traced run: timings and ratios (median over iterations
// reported), exact counts (last value reported), and failed checks.
struct Ledger {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> counts;
  std::vector<std::string> failures;
  void sample(const std::string& name, double v) {
    samples[name].push_back(v);
  }
};

// Everything one traced iteration needs about its workload.
struct TraceContext {
  const Workload& w;
  const qfr::qframan::RamanWorkflow& workflow;
  const qfr::engine::FragmentEngine& engine;
};

// The job composed from public entry points, each call timed.
struct ComposedJob {
  qfr::frag::Fragmentation fragmentation;
  qfr::runtime::RunReport report;
  qfr::spectra::RamanSpectrum spectrum;
  double engine_s = 0.0;
  std::size_t engine_calls = 0;
};

ComposedJob compose_job(const TraceContext& c,
                        const qfr::frag::BioSystem& sys, Ledger& ledger) {
  const WorkflowOptions& o = c.w.options;
  const TimedEngine timed(c.engine);
  ComposedJob job;
  const double job0 = now_s();
  double t = job0;
  job.fragmentation = qfr::part::fragment_system(sys, o.fragmentation);
  const double part_s = now_s() - t;
  const qfr::fault::FragmentResultValidator validator(o.validator);
  std::unique_ptr<qfr::cache::ResultCache> cache;
  if (o.cache.enabled) {
    cache = std::make_unique<qfr::cache::ResultCache>(o.cache);
    if (o.validate_results)
      cache->set_insert_filter([&validator](const FragmentResult& r) {
        return validator.validate(r).ok;
      });
  }
  const qfr::runtime::MasterRuntime rt(
      runtime_options(o, validator, cache.get(), o.transport));
  t = now_s();
  job.report = rt.run(job.fragmentation.fragments, timed);
  const double sweep_s = now_s() - t;
  t = now_s();
  const qfr::frag::GlobalProperties props =
      qfr::frag::assemble_global_properties(
          sys, job.fragmentation.fragments, job.report.results, o.assembly);
  const double assembly_s = now_s() - t;
  t = now_s();
  job.spectrum = solve_spectrum(o, props);
  const double solve_s = now_s() - t;
  const double job_s = now_s() - job0;
  job.engine_s = timed.seconds();
  job.engine_calls = timed.calls();

  if (const std::string why = sweep_integrity(job.report); !why.empty())
    ledger.failures.push_back("composed " + why);
  ledger.sample("qframan.job_s", job_s);
  ledger.sample("part.fragment_s", part_s);
  ledger.sample("runtime.sweep_s", sweep_s);
  ledger.sample("frag.assembly_s", assembly_s);
  ledger.sample("spectra.solve_s", solve_s);
  ledger.sample("qframan.unattributed_share",
                (job_s - part_s - sweep_s - assembly_s - solve_s) / job_s);
  double busy = 0.0;
  for (const auto& l : job.report.leaders) busy += l.busy_seconds;
  ledger.sample("runtime.leader_busy_share",
                busy / (sweep_s * static_cast<double>(o.n_leaders)));
  if (cache) {
    const qfr::cache::CacheStats cs = cache->stats();
    ledger.sample("cache.hit_rate", cs.hit_rate());
    ledger.counts["cache.inflight_waits"] =
        static_cast<double>(cs.inflight_waits);
  }
  ledger.counts["part.n_fragments"] =
      static_cast<double>(job.fragmentation.fragments.size());
  ledger.counts["runtime.n_tasks"] =
      static_cast<double>(job.report.n_tasks);
  ledger.counts["frag.hessian_nnz"] =
      static_cast<double>(props.hessian_mw.nnz());
  ledger.counts["spectra.dim"] = static_cast<double>(props.hessian_mw.rows());
  ledger.counts["spectra.lanczos_steps"] =
      o.solver == qfr::qframan::SolverKind::kExact ? 0.0 : o.lanczos_steps;
  return job;
}

// The runtime alone: MasterRuntime::run serving precomputed results, on
// both transports, over the job's own fragments.
void null_sweeps(const TraceContext& c, const ComposedJob& job,
                 const std::vector<FragmentResult>& results, Ledger& ledger) {
  const WorkflowOptions& o = c.w.options;
  const qfr::fault::FragmentResultValidator validator(o.validator);
  const qfr::runtime::MasterRuntime::FragmentCompute serve =
      [&results](const Fragment& f) { return results[f.id]; };
  double thread_s = 0.0, process_s = 0.0;
  for (const auto transport : {qfr::runtime::TransportKind::kThread,
                               qfr::runtime::TransportKind::kProcess}) {
    const qfr::runtime::MasterRuntime rt(
        runtime_options(o, validator, nullptr, transport));
    const double t = now_s();
    const qfr::runtime::RunReport rep =
        rt.run(job.fragmentation.fragments, serve);
    (transport == qfr::runtime::TransportKind::kThread ? thread_s
                                                       : process_s) =
        now_s() - t;
    if (const std::string why = sweep_integrity(rep); !why.empty())
      ledger.failures.push_back("null " + why);
  }
  ledger.sample("runtime.null_sweep_s",
                o.transport == qfr::runtime::TransportKind::kProcess
                    ? process_s
                    : thread_s);
  ledger.sample("runtime.transport_s", process_s - thread_s);
}

// Fragment anatomy of the SCF engines, summed over the job's fragments.
void record_anatomy(const TraceContext& c, const ComposedJob& job,
                    double engine_s, Ledger& ledger) {
  Anatomy sum;
  qfr::dfpt::PhaseTimes phases;
  double flops = 0.0;
  for (const Fragment& f : job.fragmentation.fragments) {
    const FragmentResult& r = job.report.results[f.id];
    const Anatomy a = engine_anatomy(c.w.options, f, r);
    sum.build += a.build;
    sum.solve += a.solve;
    sum.gradient += a.gradient;
    sum.polarizability += a.polarizability;
    sum.scf_iterations += a.scf_iterations;
    sum.dfpt_iterations += a.dfpt_iterations;
    phases += r.phase_times;
    flops += static_cast<double>(r.flops);
  }
  ledger.sample("scf.context_build_s", sum.build);
  ledger.sample("scf.solve_s", sum.solve);
  ledger.sample("integrals.gradient_s", sum.gradient);
  ledger.sample("dfpt.polarizability_s", sum.polarizability);
  ledger.sample("scf.iterations", sum.scf_iterations);
  ledger.sample("dfpt.iterations", sum.dfpt_iterations);
  ledger.sample("dfpt.phase_p1_s", phases.p1);
  ledger.sample("dfpt.phase_n1_s", phases.n1);
  ledger.sample("dfpt.phase_v1_s", phases.v1);
  ledger.sample("dfpt.phase_h1_s", phases.h1);
  ledger.counts["la.gemm_flops"] = flops;
  if (phases.total() > 0.0)
    ledger.sample("la.gemm_gflops", 1e-9 * flops / phases.total());
  ledger.sample("engine.unattributed_share",
                1.0 - (sum.build + sum.solve + sum.gradient +
                       sum.polarizability) /
                          engine_s);
}

// One traced iteration: the untraced job, the composed job and the checks
// between them, then the engine, runtime, cache and anatomy layers.
void trace_iteration(const TraceContext& c, const Reference& ref,
                     const qfr::frag::BioSystem& sys, bool first,
                     Ledger& ledger) {
  const WorkflowOptions& o = c.w.options;
  const bool process = o.transport == qfr::runtime::TransportKind::kProcess;
  double t = now_s();
  const qfr::qframan::WorkflowResult r0 = c.workflow.run(sys);
  const double untraced_s = now_s() - t;
  ledger.sample("untraced_job_s", untraced_s);
  if (const std::string why = check_job(c.w, ref, r0); !why.empty())
    ledger.failures.push_back(why);

  const ComposedJob job = compose_job(c, sys, ledger);
  ledger.sample("obs.trace_overhead_s",
                ledger.samples["qframan.job_s"].back() - untraced_s);
  // Bitwise parity, except where several leaders race for cache hits:
  // which copy of a repeated fragment is computed and which is transported
  // then depends on timing, so the composed job meets the reference
  // tolerance instead.
  const bool deterministic = !(o.cache.enabled && o.n_leaders > 1);
  const double d = spectrum_distance(job.spectrum, r0.spectrum);
  if (deterministic ? !bitwise_equal(job.spectrum, r0.spectrum)
                    : !(d <= tolerances(c.w).spectrum_rel_l2))
    ledger.failures.push_back(
        "composed spectrum differs from RamanWorkflow::run by " +
        std::to_string(d));
  if (process && first) {
    WorkflowOptions thread_opts = o;
    thread_opts.transport = qfr::runtime::TransportKind::kThread;
    const qfr::qframan::WorkflowResult rt =
        qfr::qframan::RamanWorkflow(thread_opts).run(sys);
    if (!bitwise_equal(rt.spectrum, r0.spectrum))
      ledger.failures.push_back(
          "thread and process transports disagree by " +
          std::to_string(spectrum_distance(rt.spectrum, r0.spectrum)));
  }

  // Engine time: the decorator inside the threaded sweep. Leader processes
  // keep their timings, so under kProcess the fragments are computed once
  // more in this process through the decorator.
  std::vector<FragmentResult> results = job.report.results;
  double engine_s = job.engine_s;
  std::size_t calls = job.engine_calls;
  if (process) {
    const TimedEngine direct(c.engine);
    for (const Fragment& f : job.fragmentation.fragments)
      results[f.id] = direct.compute(f.id, f.mol, f.bonds);
    engine_s = direct.seconds();
    calls = direct.calls();
  }
  ledger.sample("engine.compute_s", engine_s);
  ledger.counts["engine.calls"] = static_cast<double>(calls);
  ledger.sample("runtime.overhead_s",
                ledger.samples["runtime.sweep_s"].back() -
                    engine_s / static_cast<double>(o.n_leaders));

  null_sweeps(c, job, results, ledger);

  t = now_s();
  for (const Fragment& f : job.fragmentation.fragments)
    (void)qfr::cache::canonicalize(f.mol, o.cache.tolerance, c.engine.name());
  ledger.sample("cache.canonicalize_s", now_s() - t);

  if (is_ab_initio(c.w)) record_anatomy(c, job, engine_s, ledger);
}

// Per-layer metrics in output order; a layer a workload never exercises
// reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"integrals.gradient_s", "s"},
    {"scf.context_build_s", "s"},
    {"scf.solve_s", "s"},
    {"scf.iterations", "count"},
    {"dfpt.polarizability_s", "s"},
    {"dfpt.phase_p1_s", "s"},
    {"dfpt.phase_n1_s", "s"},
    {"dfpt.phase_v1_s", "s"},
    {"dfpt.phase_h1_s", "s"},
    {"dfpt.iterations", "count"},
    {"la.gemm_flops", "flop"},
    {"la.gemm_gflops", "GFLOP/s"},
    {"engine.compute_s", "s"},
    {"engine.calls", "count"},
    {"engine.unattributed_share", "ratio"},
    {"part.fragment_s", "s"},
    {"part.n_fragments", "count"},
    {"runtime.sweep_s", "s"},
    {"runtime.n_tasks", "count"},
    {"runtime.leader_busy_share", "ratio"},
    {"runtime.overhead_s", "s"},
    {"runtime.null_sweep_s", "s"},
    {"runtime.transport_s", "s"},
    {"cache.hit_rate", "ratio"},
    {"cache.inflight_waits", "count"},
    {"cache.canonicalize_s", "s"},
    {"frag.assembly_s", "s"},
    {"frag.hessian_nnz", "count"},
    {"spectra.solve_s", "s"},
    {"spectra.dim", "count"},
    {"spectra.lanczos_steps", "count"},
    {"qframan.job_s", "s"},
    {"qframan.unattributed_share", "ratio"},
    {"obs.trace_overhead_s", "s"},
};

}  // namespace

TraceOutcome run_traced(const Workload& w, References& refs,
                        double seconds) {
  const qfr::qframan::RamanWorkflow workflow(w.options);
  const auto engine =
      qfr::qframan::make_engine(w.options.engine, w.options.batched_gemm);
  const TraceContext c{w, workflow, *engine};
  // References (the warm-up) before any timing.
  for (std::size_t i = 0; i < w.systems.size(); ++i) refs.get(i);

  TraceOutcome out;
  Ledger ledger;
  const double start = now_s();
  double last_iter = 0.0;
  for (std::size_t it = 0;
       it == 0 || now_s() - start + last_iter <= seconds; ++it) {
    const double t0 = now_s();
    const std::size_t idx = it % w.systems.size();
    const std::size_t failures = ledger.failures.size();
    out.attempted += 2;  // the untraced and the composed job
    try {
      trace_iteration(c, refs.get(idx), w.systems[idx], it == 0, ledger);
    } catch (const std::exception& e) {
      ledger.failures.push_back(std::string("traced job threw: ") +
                                e.what());
    }
    out.failed += std::min<std::size_t>(2, ledger.failures.size() - failures);
    last_iter = now_s() - t0;
  }
  out.correct = ledger.failures.empty();
  if (!out.correct)
    std::fprintf(stderr, "qfbench: %s\n",
                 ledger.failures.front().c_str());
  out.job_times = ledger.samples["untraced_job_s"];
  for (const auto& [name, unit] : kLayerMetrics) {
    double v = 0.0;
    if (const auto i = ledger.counts.find(name); i != ledger.counts.end())
      v = i->second;
    if (const auto i = ledger.samples.find(name); i != ledger.samples.end())
      v = median(i->second);
    out.metrics.push_back({name, v, unit});
  }
  return out;
}

}  // namespace qfbench
