// MiniFE (MiFE): implicit finite-element proxy (Mantevo, Sec. II-B1g).
// Assembles a hex-8 Poisson stiffness matrix into CSR (the scatter-heavy
// irregular phase) and solves with unpreconditioned CG. Paper input:
// a 128x128x128 grid.
#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kPaperDim = 128;
constexpr int kPaperIters = 200;

constexpr std::uint64_t kRunDim = 22;  // element grid edge at scale 1
constexpr int kRunIters = 40;

struct Csr {
  std::vector<std::uint64_t> row_ptr;
  std::vector<std::uint32_t> col;
  std::vector<double> val;
  std::uint64_t n = 0;
};

}  // namespace

WorkloadMeasurement run_minife(const KernelInfo& info, ExecutionContext& ctx,
                               const RunConfig& cfg) {
  const std::uint64_t ne = scaled_dim(kRunDim, cfg.scale);  // elements/dim
  const std::uint64_t nn = ne + 1;                          // nodes/dim
  const std::uint64_t nodes = nn * nn * nn;

  auto node_id = [&](std::uint64_t x, std::uint64_t y, std::uint64_t z) {
    return x + nn * (y + nn * z);
  };

  Csr A;
  A.n = nodes;

  const auto rec = assayed(ctx, [&] {
    // --- Assembly: per-element 8x8 hex stiffness scattered into a
    // row-wise map, then compressed to CSR. Int-dominated.
    std::vector<std::map<std::uint32_t, double>> rows(nodes);
    std::uint64_t fp = 0, iops = 0;
    for (std::uint64_t ez = 0; ez < ne; ++ez) {
      for (std::uint64_t ey = 0; ey < ne; ++ey) {
        for (std::uint64_t ex = 0; ex < ne; ++ex) {
          std::uint32_t n8[8];
          int k = 0;
          for (std::uint64_t dz = 0; dz <= 1; ++dz) {
            for (std::uint64_t dy = 0; dy <= 1; ++dy) {
              for (std::uint64_t dx = 0; dx <= 1; ++dx) {
                n8[k++] = static_cast<std::uint32_t>(
                    node_id(ex + dx, ey + dy, ez + dz));
              }
            }
          }
          iops += 40;
          // Hex-8 Laplace stiffness (reference element): diagonal 1/3,
          // axis neighbours 0, face/body diagonals -1/12 (rows sum to
          // zero), plus a small mass shift so the operator is SPD and
          // the manufactured solution x = 1 is recoverable.
          for (int i = 0; i < 8; ++i) {
            for (int j = 0; j < 8; ++j) {
              const int shared =
                  ((i ^ j) & 1 ? 0 : 1) + ((i ^ j) & 2 ? 0 : 1) +
                  ((i ^ j) & 4 ? 0 : 1);
              static constexpr double w[4] = {-1.0 / 12, -1.0 / 12, 0.0,
                                              1.0 / 3};
              double v = w[shared];
              if (i == j) v += 0.05;  // mass shift (Helmholtz-like)
              if (v != 0.0) rows[n8[i]][n8[j]] += v;
              fp += 1;
              iops += 8;  // scatter map search/insert
            }
          }
        }
      }
    }
    counters::add_fp64(fp);
    counters::add_int(iops);
    counters::add_read_bytes(iops * 4);
    counters::add_write_bytes(fp * 8);

    A.row_ptr.reserve(nodes + 1);
    A.row_ptr.push_back(0);
    for (std::uint64_t r = 0; r < nodes; ++r) {
      for (const auto& [c, v] : rows[r]) {
        A.col.push_back(c);
        A.val.push_back(v);
      }
      A.row_ptr.push_back(A.col.size());
    }
    counters::add_int(2 * A.col.size());

    // --- CG solve of A x = b with b = A * ones (so x -> ones).
    AlignedBuffer<double> xref(nodes, 1.0), b(nodes), x(nodes, 0.0),
        r(nodes), p(nodes), ap(nodes);
    auto spmv = [&](const double* in, double* out) {
      ctx.parallel_for(
          nodes, [&](std::size_t lo, std::size_t hi, unsigned) {
            std::uint64_t f2 = 0;
            for (std::size_t row = lo; row < hi; ++row) {
              double s = 0.0;
              for (std::uint64_t kk = A.row_ptr[row]; kk < A.row_ptr[row + 1];
                   ++kk) {
                s += A.val[kk] * in[A.col[kk]];
              }
              out[row] = s;
              f2 += 2 * (A.row_ptr[row + 1] - A.row_ptr[row]);
            }
            counters::add_fp64(f2);
            counters::add_int(3 * f2);
            counters::add_read_bytes(f2 / 2 * 20);
            counters::add_write_bytes((hi - lo) * 8);
          });
    };
    auto dot = [&](const double* u, const double* v) {
      double s = 0.0;
      for (std::uint64_t i = 0; i < nodes; ++i) s += u[i] * v[i];
      counters::add_fp64(2 * nodes);
      counters::add_read_bytes(16 * nodes);
      return s;
    };

    spmv(xref.data(), b.data());
    std::copy(b.begin(), b.end(), r.begin());
    std::copy(b.begin(), b.end(), p.begin());
    double rr = dot(r.data(), r.data());
    for (int it = 0; it < kRunIters && rr > 1e-24; ++it) {
      spmv(p.data(), ap.data());
      const double alpha = rr / dot(p.data(), ap.data());
      for (std::uint64_t i = 0; i < nodes; ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
      }
      counters::add_fp64(4 * nodes);
      const double rr_new = dot(r.data(), r.data());
      const double beta = rr_new / rr;
      for (std::uint64_t i = 0; i < nodes; ++i) p[i] = r[i] + beta * p[i];
      counters::add_fp64(2 * nodes);
      counters::add_read_bytes(48 * nodes);
      counters::add_write_bytes(24 * nodes);
      rr = rr_new;
    }
    // Verification: the solve reproduces the manufactured solution on a
    // sample of interior nodes. The matrix is singular up to boundary
    // handling, but x=ones is in the range by construction.
    double max_err = 0.0;
    for (std::uint64_t i = 0; i < nodes; i += 97) {
      max_err = std::max(max_err, std::abs(x[i] - 1.0));
    }
    require(info, max_err < 0.05, "CG recovers manufactured solution");
  });

  const double paper_nodes = static_cast<double>((kPaperDim + 1)) *
                             (kPaperDim + 1) * (kPaperDim + 1);
  const double ops_scale = paper_nodes / static_cast<double>(nodes) *
                           static_cast<double>(kPaperIters) / kRunIters;
  const auto paper_ws =
      static_cast<std::uint64_t>(paper_nodes * (27.0 * 12 + 6 * 8));

  memsim::AccessPatternSpec access;
  memsim::StreamPattern ms;
  ms.bytes_per_array = static_cast<std::uint64_t>(paper_nodes * 27 * 12);
  ms.arrays = 1;
  ms.writes_per_iter = 0;
  access.components.push_back({ms, 0.7});
  memsim::StencilPattern st{.nx = kPaperDim, .ny = kPaperDim,
                            .nz = kPaperDim, .elem_bytes = 8, .radius = 1,
                            .full_box = true};
  access.components.push_back({st, 0.3});

  KernelTraits traits;
  traits.vec_eff = 0.080;  // calibrated: ~2.5x Table IV achieved rate;
                       // this kernel is memory-bound on BDW (high
                       // MBd in Table IV), so the memory term binds
  traits.int_eff = 0.35;
  traits.phi_vec_penalty = 1.4;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 4.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.02;
  traits.latency_dep_fraction = 0.05;
  // Table IV: the Phi runs use a different decomposition and issue ~5x
  // the integer ops (669 vs 121 Gop on KNM vs BDW).
  traits.phi_adjust.int_ops = 4.0;

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            static_cast<double>(A.col.size()));
}

}  // namespace fpr::kernels
