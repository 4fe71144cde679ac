// QF-RAMAN benchmark program: time-to-spectrum through
// qframan::RamanWorkflow::run on one named workload, with every job's
// output checked against a reference computed here for the seed.
//
//   qfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints
// the per-layer ledger measured from outside the program. The last line of
// standard output is the result JSON; a metadata JSON line precedes it.
// qfbench/run.py builds this program and sets the thread environment.

#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "qfr/common/log.hpp"

#ifdef QFR_HAVE_OPENMP
#include <omp.h>
#endif

namespace {

using namespace qfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "qfbench: %s\nusage: qfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, &end, 10);
      if (end == val || *end != '\0') usage("bad --seed");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0' || !(a.seconds > 0.0))
        usage("bad --seconds");
    } else if (key == "--trace") {
      if (std::strcmp(val, "0") != 0 && std::strcmp(val, "1") != 0)
        usage("bad --trace");
      a.trace = val[0] - '0';
    } else {
      usage("unknown argument");
    }
  }
  if (argc % 2 != 1) usage("missing value");
  bool known = false;
  for (const std::string& n : workload_names()) known |= n == a.workload;
  if (!known) usage("unknown --workload");
  if (a.seconds <= 0.0 || a.trace < 0) usage("missing argument");
  return a;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

const char* transport_name(qfr::runtime::TransportKind t) {
  return t == qfr::runtime::TransportKind::kProcess ? "process" : "thread";
}

void print_meta(const Args& a, const Workload& w,
                const std::vector<double>& job_times, const char* env_omp,
                int omp_threads) {
  std::printf("{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %g, \"trace\": %d, \"samples\": %zu, "
              "\"nproc\": %u, \"cpu_model\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"OMP_NUM_THREADS\": \"%s\", "
              "\"omp_max_threads\": %d, \"n_leaders\": %zu, "
              "\"workers_per_leader\": %zu, \"transport\": \"%s\", "
              "\"params\": {",
              w.name.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, job_times.size(),
              std::thread::hardware_concurrency(),
              json_escape(cpu_model()).c_str(), json_escape(__VERSION__).c_str(),
              QFBENCH_BUILD_TYPE, env_omp, omp_threads, w.options.n_leaders,
              w.options.workers_per_leader,
              transport_name(w.options.transport));
  bool first = true;
  for (const auto& [k, v] : w.params) {
    std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                json_escape(v).c_str());
    first = false;
  }
  std::printf("}, \"job_s_min\": %.9g, \"job_s_samples\": [",
              min_of(job_times));
  for (std::size_t i = 0; i < job_times.size(); ++i)
    std::printf("%s%.9g", i == 0 ? "" : ", ", job_times[i]);
  std::printf("]}}\n");
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics)
    std::printf("# %-28s %16.9g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("# failed_share %.6g (%zu of %zu jobs)\n",
              attempted > 0 ? static_cast<double>(failed) /
                                  static_cast<double>(attempted)
                            : 1.0,
              failed, attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no NaN or infinity; a ratio over an empty layer reads 0.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Jobs below this count are always run, whatever --seconds says.
constexpr std::size_t kMinJobs = 3;
/// setup_s is the median of set-ups sampled across the whole run: before
/// each job the set-up is repeated for kSetupShare of the previous job's
/// time (at least once, at most kSetupMaxReps times), so the samples span
/// the same stretch of wall time as the jobs.
constexpr double kSetupShare = 0.02;
constexpr std::size_t kSetupMaxReps = 500;

/// One set-up: input generation plus workflow construction.
Workload timed_setup(const Args& a, std::vector<double>& times) {
  const double t0 = now_s();
  Workload w = make_workload(a.workload, a.seed);
  const qfr::qframan::RamanWorkflow workflow(w.options);
  (void)workflow;
  times.push_back(now_s() - t0);
  return w;
}

void sample_setup(const Args& a, std::vector<double>& times,
                  double budget_s) {
  const double start = now_s();
  for (std::size_t i = 0;
       i < kSetupMaxReps && (i == 0 || now_s() - start < budget_s); ++i)
    (void)timed_setup(a, times);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  // The benchmark pins one OpenMP thread per leader; run.py sets it, and a
  // run under any other value would measure a different program.
  const char* env_omp = std::getenv("OMP_NUM_THREADS");
  int omp_threads = 1;
#ifdef QFR_HAVE_OPENMP
  omp_threads = omp_get_max_threads();
#endif
  if (env_omp == nullptr || std::strcmp(env_omp, "1") != 0 ||
      omp_threads != 1) {
    std::fprintf(stderr, "qfbench: OMP_NUM_THREADS must be 1\n");
    return 2;
  }
  qfr::Log::set_level(qfr::LogLevel::kError);

  std::vector<double> setup_times;
  const Workload w = timed_setup(args, setup_times);
  References refs(w);

  if (args.trace == 1) {
    const TraceOutcome t = run_traced(w, refs, args.seconds);
    print_meta(args, w, t.job_times, env_omp, omp_threads);
    print_result(t.correct, t.attempted, t.failed, t.metrics);
    return 0;
  }

  const qfr::qframan::RamanWorkflow workflow(w.options);
  // References first: they double as the warm-up.
  for (std::size_t i = 0; i < w.systems.size(); ++i) refs.get(i);

  // peak_rss_mb is the median over jobs of each job's own peak: before
  // every job the heap's free memory goes back to the kernel and the peak
  // is reset to what is left, so neither memory the allocator kept from
  // earlier jobs nor the timing of the two leaders' frees moves it. Where
  // the kernel can not reset the peak, it is the run's peak (which then
  // also holds the references and set-ups).
  const bool rss_per_job = reset_peak_rss();
  if (!rss_per_job)
    std::fprintf(stderr, "qfbench: peak RSS can not be reset; "
                         "peak_rss_mb is the run's peak\n");
  std::vector<double> job_times, job_cpu, job_rss;
  std::size_t attempted = 0, failed = 0;
  std::string first_failure;
  auto fail = [&](const std::string& why) {
    ++failed;
    if (first_failure.empty()) first_failure = why;
  };
  const double loop_start = now_s();
  double last_job = 0.0;
  while (attempted < kMinJobs ||
         now_s() - loop_start + last_job <= args.seconds) {
    sample_setup(args, setup_times, kSetupShare * last_job);
    if (rss_per_job) {
      malloc_trim(0);
      reset_peak_rss();
    }
    const std::size_t idx = attempted % w.systems.size();
    ++attempted;
    const double c0 = cpu_s(), t0 = now_s();
    try {
      const qfr::qframan::WorkflowResult r = workflow.run(w.systems[idx]);
      last_job = now_s() - t0;
      job_times.push_back(last_job);
      job_cpu.push_back(cpu_s() - c0);
      job_rss.push_back(peak_rss_mb());
      const std::string why = check_job(w, refs.get(idx), r);
      if (!why.empty()) fail(why);
    } catch (const std::exception& e) {
      last_job = now_s() - t0;
      fail(std::string("job threw: ") + e.what());
    }
  }
  if (!first_failure.empty())
    std::fprintf(stderr, "qfbench: %s\n", first_failure.c_str());

  const std::vector<Metric> metrics = {
      {"job_s", median(job_times), "s"},
      {"cpu_s", median(job_cpu), "s"},
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mb", rss_per_job ? median(job_rss) : peak_rss_mb(), "MiB"},
  };
  print_meta(args, w, job_times, env_omp, omp_threads);
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}
