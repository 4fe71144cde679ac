#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/common/rng.hpp"
#include "qfr/common/units.hpp"
#include "qfr/la/blas.hpp"
#include "qfr/spectra/raman.hpp"

namespace qfbench {

using qfr::qframan::EngineKind;
using qfr::qframan::SolverKind;
using qfr::qframan::WorkflowOptions;

namespace {

// Independent streams of one workload seed (input geometry, protein, box).
std::uint64_t substream(std::uint64_t seed, std::uint64_t stream) {
  qfr::Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  return rng();
}

// Randomly oriented water monomers, each atom displaced by up to 0.005 bohr
// per axis: distinct internal geometries per seed.
std::vector<qfr::chem::Molecule> perturbed_waters(std::size_t n,
                                                  std::uint64_t seed) {
  qfr::Rng rng(substream(seed, 0));
  std::vector<qfr::chem::Molecule> out;
  for (std::size_t k = 0; k < n; ++k) {
    qfr::chem::Molecule w =
        qfr::chem::make_water({}, rng.uniform(0.0, 2.0 * qfr::units::kPi));
    for (std::size_t a = 0; a < w.size(); ++a)
      for (int c = 0; c < 3; ++c)
        w.atom(a).position[c] += rng.uniform(-0.005, 0.005);
    out.push_back(std::move(w));
  }
  return out;
}

WorkflowOptions ab_initio_options(EngineKind engine) {
  WorkflowOptions o;
  o.engine = engine;
  o.n_leaders = 1;
  o.workers_per_leader = 1;
  o.fragmentation.include_two_body = false;
  o.solver = SolverKind::kExact;
  // RHF/STO-3G puts the O-H stretches above 4000 cm^-1.
  o.omega_max_cm = 5500.0;
  o.omega_points = 2750;
  o.sigma_cm = 20.0;
  return o;
}

// solvated_protein: the seed of its fixed protein and its water count
// (well below the 225 to 270 waters a 25 A box kept around the turned
// protein on seeds 1-60).
constexpr std::uint64_t kSolvatedProteinSeed = 2024;
constexpr std::size_t kSolvatedWaters = 160;

// Turn a molecule about its centroid by a seeded angle about a seeded axis.
void rotate_randomly(qfr::chem::Molecule& mol, std::uint64_t seed) {
  qfr::Rng rng(seed);
  qfr::geom::Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
  if (axis.norm2() < 1e-24) axis = {0.0, 0.0, 1.0};
  axis = axis.normalized();
  const double angle = rng.uniform(0.0, 2.0 * qfr::units::kPi);
  const double c = std::cos(angle), s = std::sin(angle);
  const qfr::geom::Vec3 centroid = mol.centroid();
  for (std::size_t i = 0; i < mol.size(); ++i) {  // Rodrigues' formula
    const qfr::geom::Vec3 v = mol.atom(i).position - centroid;
    mol.atom(i).position = centroid + v * c + axis.cross(v) * s +
                           axis * (axis.dot(v) * (1.0 - c));
  }
}

// The n waters whose oxygens lie nearest the solute's centroid, in their
// original order.
std::vector<qfr::chem::Molecule> nearest_waters(
    std::vector<qfr::chem::Molecule> waters, const qfr::chem::Molecule& solute,
    std::size_t n) {
  const qfr::geom::Vec3 centroid = solute.centroid();
  std::vector<std::size_t> order(waters.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto dist = [&](std::size_t i) {
    return (waters[i].atom(0).position - centroid).norm();
  };
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return dist(a) < dist(b);
  });
  order.resize(std::min(n, order.size()));
  std::sort(order.begin(), order.end());
  std::vector<qfr::chem::Molecule> out;
  out.reserve(order.size());
  for (const std::size_t i : order) out.push_back(std::move(waters[i]));
  return out;
}

WorkflowOptions model_options() {
  WorkflowOptions o;
  o.engine = EngineKind::kModel;
  o.fragmentation.lambda_angstrom = 4.0;
  o.omega_max_cm = 4000.0;
  o.omega_points = 2000;
  o.sigma_cm = 20.0;
  return o;
}

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "rhf_waters", "lda_waters", "solvated_protein", "screening_process"};
  return names;
}

bool is_ab_initio(const Workload& w) {
  return w.options.engine != EngineKind::kModel;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "rhf_waters" || name == "lda_waters") {
    const bool rhf = name == "rhf_waters";
    w.options = ab_initio_options(rhf ? EngineKind::kScfHf
                                      : EngineKind::kScfLda);
    // One monomer per job, so a run holds enough jobs for a steady
    // statistic; jobs cycle through the seed's monomers.
    const std::size_t n_waters = rhf ? 4 : 2;
    for (qfr::chem::Molecule& m : perturbed_waters(n_waters, seed)) {
      qfr::frag::BioSystem sys;
      sys.waters.push_back(std::move(m));
      w.systems.push_back(std::move(sys));
    }
    w.params = {{"engine", rhf ? "scf_hf_gradient_fd" : "scf_lda_energy_fd"},
                {"pool_waters", fmt(static_cast<double>(n_waters))},
                {"waters_per_job", "1"},
                {"perturbation_bohr", "0.005"},
                {"two_body", "off"},
                {"cache", "off"},
                {"solver", "exact"}};
  } else if (name == "solvated_protein") {
    w.options = model_options();
    w.options.n_leaders = 2;
    w.options.cache.enabled = true;
    w.options.solver = SolverKind::kLanczosGagq;
    w.options.lanczos_steps = 180;
    // The same protein on every seed, so memory and work do not follow
    // the seed: one fixed 40-residue fold, turned by a seeded rotation, in
    // a seeded water box of which the kSolvatedWaters waters nearest the
    // protein are kept.
    qfr::chem::ProteinBuildOptions popts;
    popts.n_residues = 40;
    popts.seed = kSolvatedProteinSeed;
    qfr::chem::WaterBoxOptions wopts;
    wopts.edge_angstrom = 25.0;
    wopts.seed = substream(seed, 2);
    qfr::frag::BioSystem sys;
    sys.chains.push_back(qfr::chem::build_synthetic_protein(popts));
    rotate_randomly(sys.chains[0].mol, substream(seed, 1));
    std::vector<qfr::chem::Molecule> box;
    // A turn that leaves too few sites in the box gets a wider box.
    while ((box = qfr::chem::build_water_box(wopts, sys.chains[0].mol))
               .size() < kSolvatedWaters)
      wopts.edge_angstrom += wopts.spacing_angstrom;
    const std::size_t box_waters = box.size();
    sys.waters = nearest_waters(std::move(box), sys.chains[0].mol,
                                kSolvatedWaters);
    w.systems.push_back(std::move(sys));
    w.params = {{"engine", "model"},
                {"n_residues", "40"},
                {"protein_seed", fmt(static_cast<double>(kSolvatedProteinSeed))},
                {"n_waters", fmt(static_cast<double>(kSolvatedWaters))},
                {"box_waters", fmt(static_cast<double>(box_waters))},
                {"box_edge_angstrom", fmt(wopts.edge_angstrom)},
                {"lambda_angstrom", "4"},
                {"cache", "on"},
                {"solver", "lanczos_gagq"},
                {"lanczos_steps", "180"}};
  } else if (name == "screening_process") {
    w.options = model_options();
    w.options.n_leaders = 2;
    w.options.transport = qfr::runtime::TransportKind::kProcess;
    w.options.solver = SolverKind::kExact;
    // A pool of distinct boxes; back-to-back jobs cycle through it.
    constexpr std::size_t kPool = 64;
    for (std::size_t k = 0; k < kPool; ++k) {
      qfr::chem::WaterBoxOptions wopts;
      wopts.edge_angstrom = 10.0;
      wopts.seed = substream(seed, 100 + k);
      qfr::frag::BioSystem sys;
      sys.waters = qfr::chem::build_water_box(wopts, qfr::chem::Molecule{});
      w.systems.push_back(std::move(sys));
    }
    w.params = {{"engine", "model"},
                {"box_edge_angstrom", "10"},
                {"pool_boxes", fmt(static_cast<double>(kPool))},
                {"lambda_angstrom", "4"},
                {"cache", "off"},
                {"solver", "exact"},
                {"loop", "closed, 1 client"}};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

// ------------------------------------------------------------- reference

namespace {

// Harmonic wavenumbers of the internal motions: the six rigid-body
// directions (translations, rotations about the centre of mass) are
// projected out of the mass-weighted Hessian first, as in a standard
// vibrational analysis, so they read 0 even at a non-stationary geometry
// or on a rotationally noisy LDA grid. Non-linear molecule assumed.
std::vector<double> internal_frequencies(const qfr::chem::Molecule& mol,
                                         const qfr::la::CsrMatrix& h_mw) {
  const std::size_t n = mol.size(), dim = 3 * n;
  const std::vector<double> masses = mol.mass_vector_amu();
  const qfr::geom::Vec3 com = mol.center_of_mass();
  std::vector<std::vector<double>> basis;
  for (int k = 0; k < 6; ++k) {
    qfr::geom::Vec3 axis;
    axis[k % 3] = 1.0;
    std::vector<double> v(dim);
    for (std::size_t a = 0; a < n; ++a) {
      const qfr::geom::Vec3 d =
          k < 3 ? axis : axis.cross(mol.atom(a).position - com);
      for (int c = 0; c < 3; ++c)
        v[3 * a + c] = std::sqrt(masses[3 * a + c]) * d[c];
    }
    for (const auto& b : basis) {  // Gram-Schmidt
      double dot = 0.0;
      for (std::size_t i = 0; i < dim; ++i) dot += v[i] * b[i];
      for (std::size_t i = 0; i < dim; ++i) v[i] -= dot * b[i];
    }
    double norm = 0.0;
    for (const double x : v) norm += x * x;
    for (double& x : v) x /= std::sqrt(norm);
    basis.push_back(std::move(v));
  }
  qfr::la::Matrix p(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    p(i, i) = 1.0;
    for (const auto& b : basis)
      for (std::size_t j = 0; j < dim; ++j) p(i, j) -= b[i] * b[j];
  }
  const qfr::la::Matrix projected =
      qfr::la::matmul(qfr::la::matmul(p, h_mw.to_dense()), p);
  return qfr::spectra::vibrational_frequencies_cm(projected);
}

}  // namespace

qfr::spectra::RamanSpectrum solve_spectrum(
    const WorkflowOptions& o, const qfr::frag::GlobalProperties& props) {
  const std::size_t dim = props.hessian_mw.rows();
  SolverKind solver = o.solver;
  if (solver == SolverKind::kAuto)
    solver = dim <= 600 ? SolverKind::kExact : SolverKind::kLanczosGagq;
  const qfr::la::Vector axis = qfr::spectra::wavenumber_axis(
      o.omega_min_cm, o.omega_max_cm, o.omega_points);
  if (solver == SolverKind::kExact)
    return qfr::spectra::raman_spectrum_exact(props.hessian_mw.to_dense(),
                                              props.dalpha_mw, axis,
                                              o.sigma_cm);
  qfr::spectra::LanczosOptions lopts;
  lopts.steps = o.lanczos_steps;
  return qfr::spectra::raman_spectrum_lanczos(
      props.hessian_mw, props.dalpha_mw, axis, o.sigma_cm, lopts,
      solver == SolverKind::kLanczosGagq);
}

Reference compute_reference(const Workload& w, std::size_t system_index) {
  const qfr::frag::BioSystem& sys = w.systems.at(system_index);
  const auto eng =
      qfr::qframan::make_engine(w.options.engine, w.options.batched_gemm);
  std::vector<qfr::frag::Fragment> whole;
  std::vector<qfr::engine::FragmentResult> results;
  auto add = [&](const qfr::chem::Molecule& mol,
                 std::vector<qfr::chem::Bond> bonds, std::size_t offset) {
    qfr::frag::Fragment f;
    f.id = whole.size();
    f.mol = mol;
    f.bonds = std::move(bonds);
    for (std::size_t a = 0; a < mol.size(); ++a)
      f.atom_map.push_back(static_cast<std::ptrdiff_t>(offset + a));
    results.push_back(eng->compute(f.id, f.mol, f.bonds));
    whole.push_back(std::move(f));
  };
  for (std::size_t c = 0; c < sys.chains.size(); ++c)
    add(sys.chains[c].mol, sys.chains[c].bonds, sys.chain_atom_offset(c));
  for (std::size_t k = 0; k < sys.waters.size(); ++k)
    add(sys.waters[k], {{0, 1}, {0, 2}}, sys.water_atom_offset(k));

  Reference ref;
  ref.properties = qfr::frag::assemble_global_properties(sys, whole, results,
                                                         w.options.assembly);
  ref.spectrum = solve_spectrum(w.options, ref.properties);
  if (is_ab_initio(w))
    ref.frequencies_cm =
        internal_frequencies(sys.merged(), ref.properties.hessian_mw);
  return ref;
}

Tolerances tolerances(const Workload& w) {
  // Ab initio jobs and their references make the same engine calls on the
  // same geometries. Model jobs differ from the whole-molecule reference
  // by the engine's finite-difference noise in dalpha (~1e-8), which the
  // 180-step Lanczos solve amplifies to up to ~3e-4 in the spectrum.
  if (is_ab_initio(w)) return {1e-9, 1e-9};
  if (w.options.solver == SolverKind::kExact) return {1e-6, 1e-6};
  return {1e-3, 1e-6};
}

// ---------------------------------------------------------------- checks

double spectrum_distance(const qfr::spectra::RamanSpectrum& a,
                         const qfr::spectra::RamanSpectrum& b) {
  if (a.intensity.size() != b.intensity.size()) return INFINITY;
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.intensity.size(); ++i) {
    const double d = a.intensity[i] - b.intensity[i];
    num += d * d;
    den += b.intensity[i] * b.intensity[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : INFINITY;
}

bool bitwise_equal(const qfr::spectra::RamanSpectrum& a,
                   const qfr::spectra::RamanSpectrum& b) {
  return a.omega_cm == b.omega_cm && a.intensity == b.intensity;
}

namespace {

// max over seeded probes x of |(A - B) x| / |B x|.
double operator_distance(const qfr::la::CsrMatrix& a,
                         const qfr::la::CsrMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  qfr::Rng rng(17);
  double worst = 0.0;
  for (int probe = 0; probe < 3; ++probe) {
    std::vector<double> x(a.cols());
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    const qfr::la::Vector ax = a.apply(x), bx = b.apply(x);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i) {
      num += (ax[i] - bx[i]) * (ax[i] - bx[i]);
      den += bx[i] * bx[i];
    }
    worst = std::max(worst, den > 0.0 ? std::sqrt(num / den) : INFINITY);
  }
  return worst;
}

double matrix_distance(const qfr::la::Matrix& a, const qfr::la::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  double scale = 0.0;
  for (std::size_t i = 0; i < b.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j)
      scale = std::max(scale, std::abs(b(i, j)));
  return scale > 0.0 ? qfr::la::max_abs_diff(a, b) / scale : INFINITY;
}

// Internal modes of a perturbed water monomer: six rigid-body zeros, the
// H-O-H bend and two O-H stretches.
std::string check_water_bands(std::vector<double> freqs) {
  std::sort(freqs.begin(), freqs.end(), std::greater<>());
  if (freqs.size() == 9 && freqs[0] <= 5600.0 && freqs[1] >= 3800.0 &&
      freqs[2] <= 2600.0 && freqs[2] >= 1400.0 &&
      std::abs(freqs[3]) < 50.0 && std::abs(freqs[8]) < 50.0)
    return {};
  std::ostringstream os;
  os << "water bands off:";
  for (const double f : freqs) os << ' ' << f;
  return os.str();
}

}  // namespace

std::string check_job(const Workload& w, const Reference& ref,
                      const qfr::qframan::WorkflowResult& r) {
  const qfr::qframan::SweepSummary& s = r.sweep;
  std::size_t incomplete = 0;
  for (const auto& o : s.outcomes)
    if (!o.completed || o.degraded()) ++incomplete;
  if (s.n_degraded > 0 || s.n_dropped > 0 || incomplete > 0 ||
      s.outcomes.size() != s.n_fragments || s.n_fragments == 0) {
    std::ostringstream os;
    os << "sweep integrity: " << s.n_degraded << " degraded, "
       << s.n_dropped << " dropped, " << incomplete << " incomplete of "
       << s.n_fragments;
    return os.str();
  }
  for (const double v : r.spectrum.intensity)
    if (!std::isfinite(v)) return "non-finite spectrum";
  const Tolerances tol = tolerances(w);
  const double ds = spectrum_distance(r.spectrum, ref.spectrum);
  const double dh =
      operator_distance(r.properties.hessian_mw, ref.properties.hessian_mw);
  const double da =
      matrix_distance(r.properties.dalpha_mw, ref.properties.dalpha_mw);
  if (!(dh <= tol.properties_rel) || !(da <= tol.properties_rel))
    return "properties off reference: hessian " + std::to_string(dh) +
           ", dalpha " + std::to_string(da);
  if (!(ds <= tol.spectrum_rel_l2))
    return "spectrum off reference by " + std::to_string(ds);
  if (is_ab_initio(w)) {
    const std::string bands = check_water_bands(ref.frequencies_cm);
    if (!bands.empty()) return bands;
  }
  return {};
}

// ---------------------------------------------------------- TimedEngine

template <class F>
qfr::engine::FragmentResult TimedEngine::timed(F&& f) const {
  const auto t0 = std::chrono::steady_clock::now();
  qfr::engine::FragmentResult r = f();
  ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
             .count();
  ++calls_;
  return r;
}

qfr::engine::FragmentResult TimedEngine::compute(
    const qfr::chem::Molecule& fragment) const {
  return timed([&] { return inner_.compute(fragment); });
}

qfr::engine::FragmentResult TimedEngine::compute(
    std::size_t fragment_id, const qfr::chem::Molecule& fragment) const {
  return timed([&] { return inner_.compute(fragment_id, fragment); });
}

qfr::engine::FragmentResult TimedEngine::compute(
    std::size_t fragment_id, const qfr::chem::Molecule& fragment,
    const std::vector<qfr::chem::Bond>& bonds) const {
  return timed([&] { return inner_.compute(fragment_id, fragment, bonds); });
}

// ---------------------------------------------------------- measurement

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

}  // namespace qfbench
