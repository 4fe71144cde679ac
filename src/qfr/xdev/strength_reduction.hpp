#pragma once

#include "qfr/la/matrix.hpp"

namespace qfr::xdev {

/// The two symmetry-aware strength reductions of paper Fig. 6.
///
/// (a) The response-Hamiltonian expression
///         H1 += chi^T chi + chi^T gchi + gchi^T chi
///     costs three GEMMs naively. Because the result is symmetric it
///     equals A + A^T with A = chi^T (chi/2 + gchi) — one GEMM of the
///     same shape, a 3x reduction in multiply work.
///
/// (b) The response-density gradient
///         grad_rho1(p) = (chi P1 gchi^T)_pp + (gchi P1 chi^T)_pp
///     costs two GEMMs (+2 GEMVs for the diagonal extraction) naively.
///     With P1 symmetric the two diagonals are equal, so one GEMM and a
///     doubled contraction suffice.
///
/// Both variants serve only bench/micro_kernels.cpp and the cluster/xdev
/// tests: `*_naive` is the correctness reference and the bench baseline,
/// `*_reduced` the Fig. 6 form. No production module includes this
/// header; the production H1 takes its symmetric reduction from
/// la::TaskSym::kSymmetricOut in grid::accumulate_potential_matrix_many.

/// (a) naive: three GEMM invocations. chi, gchi are (points x nbf);
/// returns the (nbf x nbf) symmetric accumulation.
la::Matrix h1_expression_naive(const la::Matrix& chi, const la::Matrix& gchi);

/// (a) reduced: one GEMM plus a transpose-add.
la::Matrix h1_expression_reduced(const la::Matrix& chi,
                                 const la::Matrix& gchi);

/// (b) naive: two full GEMMs, diagonal contraction of each.
la::Vector grad_rho_naive(const la::Matrix& chi, const la::Matrix& gchi,
                          const la::Matrix& p1);

/// (b) reduced: one GEMM, doubled contraction (requires symmetric p1).
la::Vector grad_rho_reduced(const la::Matrix& chi, const la::Matrix& gchi,
                            const la::Matrix& p1);

}  // namespace qfr::xdev
