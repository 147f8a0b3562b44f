// MiniTri (MTri): graph-analytics proxy (Sec. II-B1h) — triangle
// detection and a largest-clique bound on a sparse symmetric graph
// (paper input: BCSSTK30 from MatrixMarket). Re-implemented over a
// deterministic synthetic graph with a BCSSTK30-like degree profile.
// Pure integer/branch workload (Table IV: zero FP operations).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

namespace {

constexpr std::uint64_t kRunVerts = 4000;
constexpr std::uint64_t kBand = 24;  // banded connectivity (FE matrix-like)
constexpr double kPaperVerts = 28924;   // BCSSTK30 order
constexpr double kPaperNnz = 2043492;   // BCSSTK30 entries

// BCSSTK30 is a structural-engineering stiffness matrix: banded with
// dense local blocks. A banded graph with overlapping cliques reproduces
// both the degree distribution and a high triangle density.
struct Graph {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> adj;  // sorted neighbour lists
  std::uint64_t n = 0;

  [[nodiscard]] std::uint64_t edges() const { return adj.size() / 2; }
};

Graph build_banded(std::uint64_t n, std::uint64_t band) {
  Graph g;
  g.n = n;
  g.offsets.reserve(n + 1);
  g.offsets.push_back(0);
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t lo = v > band ? v - band : 0;
    const std::uint64_t hi = std::min(n - 1, v + band);
    for (std::uint64_t u = lo; u <= hi; ++u) {
      if (u != v) g.adj.push_back(static_cast<std::uint32_t>(u));
    }
    g.offsets.push_back(g.adj.size());
  }
  return g;
}

// Analytic triangle count of the banded graph: a triple (i<j<k) is a
// triangle iff k-i <= band. Count = sum over span s=2..band of (s-1)
// triples per base vertex i (i from 0..n-1-s).
std::uint64_t banded_triangles(std::uint64_t n, std::uint64_t band) {
  std::uint64_t t = 0;
  for (std::uint64_t s = 2; s <= band && s < n; ++s) {
    t += (n - s) * (s - 1);
  }
  return t;
}

}  // namespace

WorkloadMeasurement run_minitri(const KernelInfo& info, ExecutionContext& ctx,
                                const RunConfig& cfg) {
  const std::uint64_t n = scaled_n(kRunVerts, cfg.scale);
  const Graph g = build_banded(n, kBand);

  std::atomic<std::uint64_t> triangles{0};
  std::atomic<std::uint64_t> max_tri_per_edge{0};

  const auto rec = assayed(ctx, [&] {
    // Edge-iterator triangle counting with sorted-list intersection;
    // each triangle is found once via the u < v < w ordering.
    ctx.parallel_for(
        g.n, [&](std::size_t lo, std::size_t hi, unsigned) {
          std::uint64_t local = 0, iops = 0, branches = 0, best_edge = 0;
          for (std::size_t u = lo; u < hi; ++u) {
            // data() + offset, not &adj[offset]: the last vertex's end
            // offset is adj.size(), which operator[] may not take.
            const auto* ubeg = g.adj.data() + g.offsets[u];
            const auto* uend = g.adj.data() + g.offsets[u + 1];
            for (const auto* pv = ubeg; pv != uend; ++pv) {
              const std::uint32_t v = *pv;
              if (v <= u) continue;
              // Intersect adj(u) and adj(v), counting w > v.
              const auto* pa = pv + 1;  // neighbours of u greater than v
              const auto* pb = g.adj.data() + g.offsets[v];
              const auto* eb = g.adj.data() + g.offsets[v + 1];
              std::uint64_t edge_tri = 0;
              while (pa != uend && pb != eb) {
                iops += 3;
                ++branches;
                if (*pa < *pb) {
                  ++pa;
                } else if (*pb < *pa) {
                  ++pb;
                } else {
                  if (*pa > v) ++edge_tri;
                  ++pa;
                  ++pb;
                }
              }
              local += edge_tri;
              best_edge = std::max(best_edge, edge_tri);
              iops += 8;
            }
          }
          counters::add_int(iops);
          counters::add_branch(branches);
          counters::add_read_bytes(iops * 4);
          triangles += local;
          std::uint64_t seen = max_tri_per_edge.load();
          while (best_edge > seen &&
                 !max_tri_per_edge.compare_exchange_weak(seen, best_edge)) {
          }
        });
  });

  const std::uint64_t expected = banded_triangles(n, kBand);
  require(info, triangles.load() == expected,
          "triangle count matches closed form");
  // Largest-clique bound (miniTri's second output): a clique of size k
  // has edges carrying k-2 triangles; bound = max per-edge triangles + 2.
  const std::uint64_t clique_bound = max_tri_per_edge.load() + 2;
  require(info, clique_bound >= kBand / 2,
          "clique bound sane for banded graph");

  // Anchored on Table IV's 118.26 Gop INT: miniTri's task-based
  // linear-algebra formulation does far more integer work than a plain
  // sorted-intersection count on the same graph.
  const double ops_scale =
      1.1826e11 / std::max(1.0, static_cast<double>(rec.ops().int_ops));
  const auto paper_ws = static_cast<std::uint64_t>(kPaperNnz * 4.0 * 1.2);

  memsim::AccessPatternSpec access;
  memsim::GatherPattern gp;
  gp.table_bytes = paper_ws;
  gp.elem_bytes = 4;
  gp.sequential_fraction = 0.6;  // sorted adjacency scans
  access.components.push_back({gp, 1.0});

  KernelTraits traits;
  traits.vec_eff = 0.05;  // calibrated: Table IV achieved rate
  traits.int_eff = 0.016;
  traits.phi_vec_penalty = 1.0;   // Table IV: BDW-vs-KNL efficiency ratio
  traits.int_lane_inflation = 1.0;  // SDE lane-granular int counting
  traits.serial_fraction = 0.02;
  traits.latency_dep_fraction = 0.03;
  traits.phi_scalar_penalty = 2.6;  // in-order cores on branchy merges

  return finish_measurement(info, rec, ops_scale, paper_ws, access, traits,
                            static_cast<double>(triangles.load()));
}

}  // namespace fpr::kernels
