#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qfr/chem/molecule.hpp"
#include "qfr/chem/protein.hpp"
#include "qfr/dfpt/response.hpp"
#include "qfr/la/matrix.hpp"

namespace qfr::engine {

/// How a fragment result was obtained relative to the result cache: a
/// fresh compute, an exact rigid-motion hit transported from the cache,
/// or a perturbative refresh of a near-hit cached result (trajectory
/// streaming).
enum class ReuseTier : unsigned char {
  kComputed = 0,  ///< full compute (cache miss, or cache disabled)
  kExact = 1,     ///< rigid motion within tolerance: transported, zero compute
  kRefresh = 2,   ///< small internal distortion: first-order cached update
};

inline const char* to_string(ReuseTier t) {
  switch (t) {
    case ReuseTier::kExact: return "exact";
    case ReuseTier::kRefresh: return "refresh";
    case ReuseTier::kComputed: break;
  }
  return "computed";
}

/// Everything a worker computes for one fragment (paper Fig. 3, orange):
/// the Cartesian Hessian block and the polarizability derivatives that
/// enter the global assembly of Eq. (1).
struct FragmentResult {
  double energy = 0.0;          ///< fragment total energy (hartree)
  la::Matrix hessian;           ///< (3n, 3n) Cartesian, hartree/bohr^2
  la::Matrix alpha;             ///< (3, 3) equilibrium polarizability (a.u.)
  /// d alpha^{ij} / d r: rows (xx, yy, zz, xy, xz, yz), 3n columns.
  la::Matrix dalpha;
  /// d mu / d r (atomic polar tensor): rows (x, y, z), 3n columns — the
  /// IR-intensity analogue of dalpha (extension beyond the paper's Raman
  /// focus; the same displacement loop provides it for free).
  la::Matrix dmu;
  dfpt::PhaseTimes phase_times; ///< accumulated DFPT phase wall time
  std::int64_t flops = 0;       ///< GEMM-shaped FLOPs executed
  int displacement_tasks = 0;   ///< jobs a leader would fan out to workers
  /// Provenance only, never serialized into checkpoints (restored results
  /// load as kComputed): which reuse tier produced this result. kExact
  /// means the qfr::cache result cache served it.
  ReuseTier reuse_tier = ReuseTier::kComputed;
};

/// A quantum (or quantum-surrogate) engine computing per-fragment
/// properties. Implementations must be thread-compatible: `compute` may be
/// called concurrently from different worker threads on different
/// fragments.
class FragmentEngine {
 public:
  virtual ~FragmentEngine() = default;

  /// Compute Hessian + polarizability derivatives for one fragment.
  virtual FragmentResult compute(const chem::Molecule& fragment) const = 0;

  /// Id-tagged variant: the runtime calls this with the fragment id so
  /// decorators (fault injection, per-fragment instrumentation) can key
  /// behaviour on it. Plain engines ignore the id.
  virtual FragmentResult compute(std::size_t fragment_id,
                                 const chem::Molecule& fragment) const {
    (void)fragment_id;
    return compute(fragment);
  }

  /// Topology-tagged variant: the runtime passes the fragmentation's
  /// explicit bond list alongside the geometry. Engines that would
  /// otherwise re-perceive bonds from interatomic distances (the model
  /// surrogate) override this to stay on the builder's topology — for a
  /// strongly distorted geometry, perception can disagree with the
  /// builder and silently change the force field. Decorators must
  /// forward the bonds to their inner engine, not drop them.
  virtual FragmentResult compute(std::size_t fragment_id,
                                 const chem::Molecule& fragment,
                                 const std::vector<chem::Bond>& bonds) const {
    (void)bonds;
    return compute(fragment_id, fragment);
  }

  /// Engine name for logs and provenance.
  virtual std::string name() const = 0;
};

}  // namespace qfr::engine
