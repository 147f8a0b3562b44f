// High Performance Linpack (HPL): dense Ax=b via blocked right-looking LU
// with partial pivoting — the paper's compute-intensive reference
// (Sec. II-B3a, problem size 64,512). Our reduced run factorizes a
// smaller matrix with the identical algorithm and extrapolates the
// operation counts with the exact 2/3·n^3 complexity ratio.
#include <algorithm>
#include <cmath>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {
// The paper's problem size.
constexpr std::uint64_t kPaperN = 64512;

constexpr std::uint64_t kRunN = 448;  // reduced problem size at scale 1
constexpr std::uint64_t kBlock = 64;  // panel width

// Column-major dense matrix view (LAPACK layout, as HPL uses).
struct Mat {
  double* a;
  std::uint64_t n;
  double& operator()(std::uint64_t i, std::uint64_t j) const {
    return a[j * n + i];
  }
};

}  // namespace

WorkloadMeasurement run_hpl(const KernelInfo& info, ExecutionContext& ctx,
                            const RunConfig& cfg) {
  const std::uint64_t n =
      std::max<std::uint64_t>(2 * kBlock, scaled_dim(kRunN, cfg.scale));

  // Random diagonally-dominant-ish system (HPL uses uniform [-0.5, 0.5]).
  AlignedBuffer<double> storage(n * n);
  AlignedBuffer<double> rhs(n), x(n), a_copy(n * n), b_copy(n);
  Mat A{storage.data(), n};
  Xoshiro256 rng(cfg.seed);
  for (std::uint64_t j = 0; j < n; ++j) {
    for (std::uint64_t i = 0; i < n; ++i) A(i, j) = rng.uniform(-0.5, 0.5);
  }
  for (std::uint64_t i = 0; i < n; ++i) rhs[i] = rng.uniform(-0.5, 0.5);
  std::copy(storage.begin(), storage.end(), a_copy.begin());
  std::copy(rhs.begin(), rhs.end(), b_copy.begin());

  std::vector<std::uint64_t> piv(n);

  const auto rec = assayed(ctx, [&] {
    // Blocked right-looking LU with partial pivoting.
    for (std::uint64_t k0 = 0; k0 < n; k0 += kBlock) {
      const std::uint64_t kb = std::min(kBlock, n - k0);
      // --- Unblocked panel factorization (columns k0 .. k0+kb).
      std::uint64_t panel_fp = 0, panel_int = 0;
      for (std::uint64_t k = k0; k < k0 + kb; ++k) {
        // Pivot search in column k.
        std::uint64_t p = k;
        double pmax = std::abs(A(k, k));
        for (std::uint64_t i = k + 1; i < n; ++i) {
          const double v = std::abs(A(i, k));
          if (v > pmax) {
            pmax = v;
            p = i;
          }
        }
        panel_fp += n - k;          // abs compares treated as FP ops
        panel_int += 2 * (n - k);   // index + branch bookkeeping
        counters::add_branch(n - k);
        piv[k] = p;
        if (p != k) {
          for (std::uint64_t j = 0; j < n; ++j) std::swap(A(k, j), A(p, j));
          panel_int += 2 * n;
        }
        // Scale multipliers and update the remaining panel columns.
        const double inv = 1.0 / A(k, k);
        panel_fp += 1;
        for (std::uint64_t i = k + 1; i < n; ++i) A(i, k) *= inv;
        panel_fp += n - (k + 1);
        for (std::uint64_t j = k + 1; j < k0 + kb; ++j) {
          const double akj = A(k, j);
          for (std::uint64_t i = k + 1; i < n; ++i) {
            A(i, j) -= A(i, k) * akj;
          }
          panel_fp += 2 * (n - (k + 1));
          panel_int += n - (k + 1);
        }
      }
      counters::add_fp64(panel_fp);
      counters::add_int(panel_int);
      counters::add_read_bytes(panel_fp * 8);
      counters::add_write_bytes(panel_fp * 4);

      if (k0 + kb >= n) break;
      // --- Triangular solve of the block row: U12 = L11^-1 * A12.
      std::uint64_t tr_fp = 0;
      for (std::uint64_t j = k0 + kb; j < n; ++j) {
        for (std::uint64_t k = k0; k < k0 + kb; ++k) {
          const double akj = A(k, j);
          for (std::uint64_t i = k + 1; i < k0 + kb; ++i) {
            A(i, j) -= A(i, k) * akj;
          }
          tr_fp += 2 * (k0 + kb - (k + 1));
        }
      }
      counters::add_fp64(tr_fp);
      counters::add_read_bytes(tr_fp * 8);
      counters::add_write_bytes(tr_fp * 4);

      // --- Trailing update: A22 -= L21 * U12 (the GEMM; bulk of flops).
      const std::uint64_t jcols = n - (k0 + kb);
      ctx.parallel_for(
          jcols,
          [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t fp = 0, iops = 0;
            for (std::size_t jj = lo; jj < hi; ++jj) {
              const std::uint64_t j = k0 + kb + jj;
              for (std::uint64_t k = k0; k < k0 + kb; ++k) {
                const double akj = A(k, j);
                double* __restrict col_j = &A(k0 + kb, j);
                const double* __restrict col_k = &A(k0 + kb, k);
                const std::uint64_t m = n - (k0 + kb);
                for (std::uint64_t i = 0; i < m; ++i) {
                  col_j[i] -= col_k[i] * akj;
                }
                fp += 2 * m;
                iops += m / 8 + 2;  // vector loop: index per 8-lane iter
              }
            }
            counters::add_fp64(fp);
            counters::add_int(iops);
            counters::add_read_bytes(fp * 8);
            counters::add_write_bytes(fp * 4);
          });
    }

    // Forward/backward substitution to produce x. The factorization
    // swaps full rows eagerly, so the stored L is fully permuted: apply
    // every row interchange to the RHS first (LAPACK's laswp), then
    // solve.
    for (std::uint64_t i = 0; i < n; ++i) x[i] = rhs[i];
    std::uint64_t sub_fp = 0;
    for (std::uint64_t k = 0; k < n; ++k) std::swap(x[k], x[piv[k]]);
    for (std::uint64_t k = 0; k < n; ++k) {
      const double xk = x[k];
      for (std::uint64_t i = k + 1; i < n; ++i) x[i] -= A(i, k) * xk;
      sub_fp += 2 * (n - (k + 1));
    }
    for (std::uint64_t k = n; k-- > 0;) {
      x[k] /= A(k, k);
      const double xk = x[k];
      for (std::uint64_t i = 0; i < k; ++i) x[i] -= A(i, k) * xk;
      sub_fp += 2 * k + 1;
    }
    counters::add_fp64(sub_fp);
    counters::add_read_bytes(sub_fp * 8);
    counters::add_write_bytes(sub_fp * 2);
  });

  // HPL-style verification: scaled residual of the original system.
  double norm_a = 0.0, norm_x = 0.0, resid = 0.0;
  Mat A0{a_copy.data(), n};
  for (std::uint64_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::uint64_t j = 0; j < n; ++j) row += std::abs(A0(i, j));
    norm_a = std::max(norm_a, row);
    norm_x = std::max(norm_x, std::abs(x[i]));
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    double ax = 0.0;
    for (std::uint64_t j = 0; j < n; ++j) ax += A0(i, j) * x[j];
    resid = std::max(resid, std::abs(ax - b_copy[i]));
  }
  const double scaled = resid / (norm_a * norm_x * static_cast<double>(n) *
                                 2.220446049250313e-16);
  require(info, scaled < 16.0, "HPL scaled residual < 16");

  const double nn = static_cast<double>(n);
  const double pn = static_cast<double>(kPaperN);
  const double ops_scale = (pn * pn * pn) / (nn * nn * nn);
  const auto paper_ws = static_cast<std::uint64_t>(pn * pn * 8.0);

  memsim::BlockedPattern pat;
  pat.matrix_bytes = paper_ws;
  // Production HPL blocks for L1/L2 with NB in the hundreds: every line
  // streamed from memory is reused hundreds of times inside the tile.
  pat.tile_bytes = 192 * 1024;
  pat.tile_reuse = 256.0;

  KernelTraits traits;
  traits.vec_eff = 0.92;  // calibrated: Table IV achieved rate
  traits.int_eff = 0.50;
  traits.phi_vec_penalty = 1.35;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 1.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.02;  // panel factorization is narrow
  traits.latency_dep_fraction = 0.0;

  return finish_measurement(info, rec, ops_scale, paper_ws,
                            memsim::AccessPatternSpec::single(pat), traits,
                            x[0]);
}

}  // namespace fpr::kernels
