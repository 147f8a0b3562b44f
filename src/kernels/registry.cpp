// The kernel catalogue: the paper's Table II proxy apps and its reference
// benchmarks, one row per kernel in the paper's presentation order. A row
// is the kernel's KernelInfo and its run function (defined in the
// kernel's own .cpp); make_all() and make() hand out one CatalogueKernel
// per row, and all_abbrevs() reads the abbreviations off the rows.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/execution_context.hpp"
#include "kernels/kernel_base.hpp"

namespace fpr::kernels {

WorkloadMeasurement ProxyKernel::run(const RunConfig& cfg) const {
  ExecutionContext ctx(cfg.threads);
  return run(ctx, cfg);
}

std::string_view to_string(Suite s) {
  switch (s) {
    case Suite::ecp: return "ECP";
    case Suite::riken: return "RIKEN";
    case Suite::reference: return "Reference";
  }
  return "?";
}

std::string_view to_string(Domain d) {
  switch (d) {
    case Domain::physics: return "Physics";
    case Domain::bioscience: return "Bioscience";
    case Domain::physics_bioscience: return "Physics and Bioscience";
    case Domain::physics_chemistry: return "Physics and Chemistry";
    case Domain::material_science: return "Material Science/Engineering";
    case Domain::geoscience: return "Geoscience/Earthscience";
    case Domain::math_cs: return "Math/Computer Science";
    case Domain::engineering: return "Engineering (Mechanics, CFD)";
    case Domain::chemistry: return "Chemistry";
    case Domain::lattice_qcd: return "Lattice QCD";
    case Domain::reference: return "Reference";
  }
  return "?";
}

std::string_view to_string(ComputePattern p) {
  switch (p) {
    case ComputePattern::stencil: return "Stencil";
    case ComputePattern::dense_matrix: return "Dense matrix";
    case ComputePattern::sparse_matrix: return "Sparse matrix";
    case ComputePattern::n_body: return "N-body";
    case ComputePattern::irregular: return "Irregular";
    case ComputePattern::fft: return "FFT";
    case ComputePattern::stream: return "Stream";
    case ComputePattern::io: return "I/O";
  }
  return "?";
}

namespace {

struct Row {
  KernelInfo info;
  WorkloadMeasurement (*run)(const KernelInfo& info, ExecutionContext& ctx,
                             const RunConfig& cfg);
};

/// Columns: name, abbrev, suite, domain, compute pattern, original
/// language, paper input (Table II, Sec. II-B); then the run function.
const std::vector<Row>& catalogue() {
  static const std::vector<Row> rows = {
      // ECP proxy apps (Sec. II-B1).
      {{"Algebraic multi-grid", "AMG", Suite::ecp, Domain::physics_bioscience,
        ComputePattern::stencil, "C",
        "problem 1: 27-point stencil, 3-D linear system"}, run_amg},
      {{"CANDLE", "CNDL", Suite::ecp, Domain::bioscience,
        ComputePattern::dense_matrix, "Python",
        "P1B1 autoencoder on gene expression data"}, run_candle},
      {{"Co-designed Molecular Dynamics", "CoMD", Suite::ecp,
        Domain::material_science, ComputePattern::n_body, "C",
        "LJ potential, 256,000 atoms, strong scaling"}, run_comd},
      {{"Laghos", "LAGO", Suite::ecp, Domain::physics,
        ComputePattern::irregular, "C++",
        "2-D Sedov blast wave, default settings"}, run_laghos},
      // MACSio is a synthetic I/O proxy: Table II gives it no domain.
      {{"MACSio", "MxIO", Suite::ecp, Domain::reference, ComputePattern::io,
        "C", "433.8 MB written to disk"}, run_macsio},
      {{"MiniAMR", "MAMR", Suite::ecp, Domain::geoscience,
        ComputePattern::stencil, "C",
        "sphere moving diagonally through a cubic medium"}, run_miniamr},
      {{"MiniFE", "MiFE", Suite::ecp, Domain::physics,
        ComputePattern::irregular, "C++", "128x128x128 unstructured 3-D grid"},
       run_minife},
      {{"MiniTri", "MTri", Suite::ecp, Domain::math_cs,
        ComputePattern::irregular, "C++",
        "BCSSTK30 triangle detection + clique bound"}, run_minitri},
      {{"Nekbone", "NekB", Suite::ecp, Domain::math_cs,
        ComputePattern::sparse_matrix, "Fortran",
        "CG Poisson, multigrid preconditioner, "
        "fixed elements/process and order"},
       run_nekbone},
      {{"SW4lite", "SW4L", Suite::ecp, Domain::geoscience,
        ComputePattern::stencil, "C",
        "pointsource: wave from a point in a half-space"}, run_sw4lite},
      {{"SWFFT", "FFT", Suite::ecp, Domain::physics, ComputePattern::fft,
        "C/Fortran", "32 reps of 3-D FFT on a 128^3 grid"}, run_swfft},
      {{"XSBench", "XSBn", Suite::ecp, Domain::physics,
        ComputePattern::irregular, "C",
        "large H-M reactor, 15e6 lookups/particle class"}, run_xsbench},
      // RIKEN Fiber mini-apps (Sec. II-B2).
      {{"FrontFlow/blue", "FFB", Suite::riken, Domain::engineering,
        ComputePattern::stencil, "Fortran", "3-D cavity flow, 50x50x50 cubes"},
       run_ffb},
      {{"FrontFlow/violet Cartesian", "FFVC", Suite::riken, Domain::engineering,
        ComputePattern::stencil, "C++/Fortran",
        "3-D cavity flow, 144^3 cuboid (FVM)"}, run_ffvc},
      {{"MODYLAS", "MDYL", Suite::riken, Domain::physics_chemistry,
        ComputePattern::n_body, "Fortran",
        "wat222: 156,240 atoms over 16^3 cells (FMM)"}, run_modylas},
      {{"many-variable Variational Monte Carlo", "mVMC", Suite::riken,
        Domain::physics, ComputePattern::dense_matrix, "C",
        "quantum lattice strong-scaling test, downsized"}, run_mvmc},
      {{"Next-Gen Sequencing Analyzer", "NGSA", Suite::riken,
        Domain::bioscience, ComputePattern::irregular, "C",
        "pre-generated pseudo-genome (ngsa-dummy)"}, run_ngsa},
      {{"Nonhydrostatic ICosahedral Atmospheric Model", "NICM", Suite::riken,
        Domain::geoscience, ComputePattern::stencil, "Fortran",
        "Jablonowski baroclinic wave, gl05rl00z40, 1 day"}, run_nicam},
      {{"NTChem", "NTCh", Suite::riken, Domain::chemistry,
        ComputePattern::dense_matrix, "Fortran", "MP2 solver, H2O test case"},
       run_ntchem},
      {{"Lattice QCD", "QCD", Suite::riken, Domain::lattice_qcd,
        ComputePattern::stencil, "Fortran/C", "Class 2: 32^3 x 32 lattice"},
       run_qcd},
      // Reference benchmarks (Sec. II-B3); BabelStream in both paper sizes.
      {{"High Performance Linpack", "HPL", Suite::reference, Domain::reference,
        ComputePattern::dense_matrix, "C",
        "dense Ax=b, N=64512, Intel-optimized binary"}, run_hpl},
      {{"High Performance Conjugate Gradients", "HPCG", Suite::reference,
        Domain::reference, ComputePattern::sparse_matrix, "C++",
        "360x360x360 global problem, Intel binary"}, run_hpcg},
      {{"BabelStream", "BABL2", Suite::reference, Domain::reference,
        ComputePattern::stream, "C++", "2 GiB vectors, cache mode"}, run_babl2},
      {{"BabelStream", "BABL14", Suite::reference, Domain::reference,
        ComputePattern::stream, "C++", "14 GiB vectors, cache mode"},
       run_babl14},
  };
  return rows;
}

/// The one ProxyKernel: runs its row's function on its row's info.
class CatalogueKernel final : public ProxyKernel {
 public:
  explicit CatalogueKernel(const Row& row) : row_(row) {}

  [[nodiscard]] const KernelInfo& info() const override { return row_.info; }

  using ProxyKernel::run;
  [[nodiscard]] WorkloadMeasurement run(ExecutionContext& ctx,
                                        const RunConfig& cfg) const override {
    return row_.run(row_.info, ctx, cfg);
  }

 private:
  const Row& row_;
};

}  // namespace

std::vector<std::unique_ptr<ProxyKernel>> make_all() {
  std::vector<std::unique_ptr<ProxyKernel>> out;
  out.reserve(catalogue().size());
  for (const Row& row : catalogue()) {
    out.push_back(std::make_unique<CatalogueKernel>(row));
  }
  return out;
}

std::unique_ptr<ProxyKernel> make(std::string_view abbrev) {
  for (const Row& row : catalogue()) {
    if (row.info.abbrev == abbrev) {
      return std::make_unique<CatalogueKernel>(row);
    }
  }
  throw std::invalid_argument("unknown kernel: " + std::string(abbrev));
}

std::vector<std::string> all_abbrevs() {
  std::vector<std::string> out;
  out.reserve(catalogue().size());
  for (const Row& row : catalogue()) out.push_back(row.info.abbrev);
  return out;
}

}  // namespace fpr::kernels
