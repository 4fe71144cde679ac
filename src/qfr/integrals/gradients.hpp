#pragma once

#include <array>
#include <vector>

#include "qfr/basis/basis.hpp"
#include "qfr/la/matrix.hpp"
#include "qfr/scf/scf.hpp"

namespace qfr::ints {

/// Analytic nuclear gradient of the restricted Hartree-Fock energy
/// (3N vector, hartree/bohr), via McMurchie-Davidson derivative integrals:
///
///   dE/dX = P . (dT + dV) - W . dS + Gamma . d(ERI) + dV_nn
///
/// where W is the energy-weighted density and Gamma the two-particle
/// density of the closed-shell determinant. Basis-function derivatives use
/// the exact raise/lower identity
///   d/dA_x [x_A^i e^{-a r^2}] = 2a |i+1> - i |i-1>
/// (per primitive, so no renormalization is involved), and the
/// nuclear-attraction operator's own center dependence enters through the
/// Hellmann-Feynman term dR_tuv/dC_x = -R_{t+1,u,v}. The two-electron term
/// is rhf_two_electron_gradient.
///
/// This is what upgrades the fragment worker from O((3N)^2) SCF solves
/// (energy-only finite differences) to O(3N) gradient evaluations for the
/// Hessian. Validated against central finite differences of the energy in
/// tests/test_gradients.cpp.
///
/// Throws InvalidArgument unless `scf_state` is converged and its density,
/// MO coefficients and MO energies fit `ctx`'s basis.
la::Vector rhf_gradient(const scf::ScfContext& ctx,
                        const scf::ScfResult& scf_state);

/// Two-electron part of the RHF gradient, Gamma . d(ERI), for the total
/// density `density` (n x n over ctx's basis, else InvalidArgument).
///
/// Visits only canonical shell quartets (a>=b, c>=d, ab>=cd) that pass
/// ctx.eri's Schwarz screen at 1e-11, each weighted by its permutational
/// degeneracy times Gamma_eff / 4. The A, B and C center derivatives come
/// from eri_bra_derivative on permuted shells and the D derivative from
/// translational invariance, so positions on D's atom, and quartets on a
/// single atom, cost nothing.
la::Vector rhf_two_electron_gradient(const scf::ScfContext& ctx,
                                     const la::Matrix& density);

/// Bra-center derivative integrals d(ab|cd)/dA_x, d/dA_y, d/dA_z, each
/// flattened [fa][fb][fc][fd], from the raised and lowered shells of `a`.
std::array<std::vector<double>, 3> eri_bra_derivative(const basis::Shell& a,
                                                      const basis::Shell& b,
                                                      const basis::Shell& c,
                                                      const basis::Shell& d);

}  // namespace qfr::ints
