// Unit tests for the machine descriptions: the CpuSpec math must
// reproduce the paper's Table I numbers exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "arch/machines.hpp"
#include "arch/variant.hpp"
#include "memsim/hierarchy.hpp"
#include "model/memprofile.hpp"

namespace fpr::arch {
namespace {

TEST(FpuConfig, LanesAndFlops) {
  const FpuConfig avx512{.units = 2, .vector_bits = 512, .pump = 1};
  EXPECT_EQ(avx512.lanes(Precision::fp64), 8);
  EXPECT_EQ(avx512.lanes(Precision::fp32), 16);
  EXPECT_EQ(avx512.flops_per_cycle(Precision::fp64), 32);
  EXPECT_EQ(avx512.flops_per_cycle(Precision::fp32), 64);
  const FpuConfig vnni{.units = 2, .vector_bits = 512, .pump = 2};
  EXPECT_EQ(vnni.flops_per_cycle(Precision::fp32), 128);
}

TEST(Machines, Table1PeaksKnl) {
  const CpuSpec c = knl();
  c.validate();
  // Table I: 2662 Gflop/s FP64, 5324 Gflop/s FP32.
  EXPECT_NEAR(c.peak_gflops(Precision::fp64), 2662.4, 1.0);
  EXPECT_NEAR(c.peak_gflops(Precision::fp32), 5324.8, 1.0);
  EXPECT_EQ(c.cores, 64);
  EXPECT_TRUE(c.has_mcdram());
}

TEST(Machines, Table1PeaksKnm) {
  const CpuSpec c = knm();
  c.validate();
  // Table I: 1728 Gflop/s FP64, 13824 Gflop/s FP32.
  EXPECT_NEAR(c.peak_gflops(Precision::fp64), 1728.0, 1.0);
  EXPECT_NEAR(c.peak_gflops(Precision::fp32), 13824.0, 1.0);
}

TEST(Machines, Table1PeaksBdw) {
  const CpuSpec c = bdw();
  c.validate();
  // Table I: 691 Gflop/s FP64 and 1382 FP32 (at the AVX base frequency).
  EXPECT_NEAR(c.peak_gflops(Precision::fp64), 691.2, 1.0);
  EXPECT_NEAR(c.peak_gflops(Precision::fp32), 1382.4, 1.0);
}

TEST(Machines, PaperRatios) {
  // Sec. II-A: "KNM has 2.59x more single-precision compute, while the
  // KNL has 1.54x more double-precision compute."
  const double sp_ratio = knm().peak_gflops(Precision::fp32) /
                          knl().peak_gflops(Precision::fp32);
  const double dp_ratio = knl().peak_gflops(Precision::fp64) /
                          knm().peak_gflops(Precision::fp64);
  EXPECT_NEAR(sp_ratio, 2.59, 0.02);
  EXPECT_NEAR(dp_ratio, 1.54, 0.02);
}

TEST(Machines, PeakScalesWithFrequency) {
  const CpuSpec c = knl();
  const double p13 = c.peak_gflops(Precision::fp64, 1.3);
  const double p10 = c.peak_gflops(Precision::fp64, 1.0);
  EXPECT_NEAR(p13 / p10, 1.3, 1e-9);
}

TEST(Machines, FrequencySweepEndsWithTurbo) {
  for (const auto& c : all_machines()) {
    const auto sweep = c.frequency_sweep();
    ASSERT_GE(sweep.size(), 2u);
    EXPECT_FALSE(sweep.front().turbo);
    EXPECT_TRUE(sweep.back().turbo);
    // Paper's pessimistic +100 MHz turbo point.
    EXPECT_NEAR(sweep.back().ghz, c.freq_states_ghz.back() + 0.1, 1e-9);
    for (std::size_t i = 1; i < sweep.size(); ++i) {
      EXPECT_GT(sweep[i].ghz, sweep[i - 1].ghz);
    }
  }
}

TEST(Machines, FreqStatesMatchPaperFig6) {
  EXPECT_EQ(knl().freq_states_ghz.size(), 4u);   // 1.0 .. 1.3
  EXPECT_EQ(knm().freq_states_ghz.size(), 6u);   // 1.0 .. 1.5
  EXPECT_EQ(bdw().freq_states_ghz.size(), 11u);  // 1.2 .. 2.2
}

TEST(Machines, IntThroughputPositive) {
  for (const auto& c : all_machines()) {
    EXPECT_GT(c.peak_giops(c.base_ghz), 0.0);
  }
}

TEST(Machines, ValidationCatchesBadSpecs) {
  CpuSpec c = knl();
  c.cores = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = knl();
  c.freq_states_ghz = {1.3, 1.0};  // not ascending
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = knl();
  c.mcdram_bw_gbs = 10.0;  // slower than DRAM
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = knl();
  c.fpu_issue_eff = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  // An MCDRAM machine carries its cache-mode hit efficiency in (0, 1].
  for (const double eff : {0.0, -0.5, 1.5}) {
    c = knl();
    c.mcdram_hit_eff = eff;
    EXPECT_THROW(c.validate(), std::invalid_argument) << eff;
  }
  c = knl();
  c.mcdram_hit_eff = 1.0;
  EXPECT_NO_THROW(c.validate());
  EXPECT_EQ(bdw().mcdram_hit_eff, 0.0);  // no MCDRAM, nothing to carry
  EXPECT_NO_THROW(bdw().validate());
}

TEST(Machines, HypotheticalFpuSwap) {
  const CpuSpec hybrid = with_fpu_of(knl(), knm());
  // KNL's core count/frequency with KNM's FPU: FP64 peak drops to half.
  EXPECT_NEAR(hybrid.peak_gflops(Precision::fp64),
              knl().peak_gflops(Precision::fp64) / 2.0, 1.0);
  EXPECT_NE(hybrid.short_name, knl().short_name);
  EXPECT_EQ(hybrid.cores, knl().cores);
}

TEST(Machines, AllMachinesPaperOrder) {
  const auto m = all_machines();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].short_name, "KNL");
  EXPECT_EQ(m[1].short_name, "KNM");
  EXPECT_EQ(m[2].short_name, "BDW");
  for (const auto& c : m) c.validate();
}

TEST(Machines, FindMachineByExactShortName) {
  for (const auto& c : all_machines()) {
    const auto found = find_machine(c.short_name);
    ASSERT_TRUE(found.has_value()) << c.short_name;
    EXPECT_EQ(found->name, c.name);
  }
  EXPECT_FALSE(find_machine("EPYC").has_value());
  EXPECT_FALSE(find_machine("knl").has_value());  // names are exact
  EXPECT_FALSE(find_machine("").has_value());
}

// ---------------------------------------------------------------------
// Machine-variant derivation (the Sec. VII what-if grid).

TEST(Variant, BuiltinGridValidatesOnEveryBase) {
  for (const auto& base : all_machines()) {
    const auto specs = builtin_variant_specs(base);
    EXPECT_GE(specs.size(), 6u) << base.short_name;
    std::set<std::string> names;
    for (const auto& spec : specs) {
      const auto v = derive_variant(base, spec);  // validates internally
      EXPECT_EQ(v.cpu.short_name, base.short_name + "+" + spec);
      EXPECT_TRUE(names.insert(v.cpu.short_name).second) << spec;
    }
  }
}

TEST(Variant, EmptySpecIsTheBaseItself) {
  const auto v = derive_variant(knl(), "");
  EXPECT_EQ(v.spec, "");
  EXPECT_EQ(v.cpu.short_name, "KNL");
  EXPECT_EQ(v.cpu.cores, knl().cores);
}

TEST(Variant, HalveFp64HalvesPipesThenWidth) {
  // KNL: 2 pipes -> 1 pipe (32 -> 16 flop/cycle).
  const auto once = derive_variant(knl(), "halve-fp64");
  EXPECT_EQ(once.cpu.fp64_fpu.units, 1);
  EXPECT_EQ(once.cpu.fp64_fpu.vector_bits, 512);
  // KNM: already 1 pipe -> width halves (16 -> 8 flop/cycle).
  const auto knm_once = derive_variant(knm(), "halve-fp64");
  EXPECT_EQ(knm_once.cpu.fp64_fpu.units, 1);
  EXPECT_EQ(knm_once.cpu.fp64_fpu.vector_bits, 256);
  // Composition runs all the way down; at scalar it refuses.
  EXPECT_THROW(
      derive_variant(knm(), "halve-fp64+halve-fp64+halve-fp64+halve-fp64"),
      std::invalid_argument);
}

TEST(Variant, DropFp64VecKeepsScalarFma) {
  const auto v = derive_variant(knl(), "drop-fp64-vec");
  EXPECT_EQ(v.cpu.fp64_fpu.flops_per_cycle(Precision::fp64), 2);
  // FP32 silicon untouched; the machine still validates.
  EXPECT_EQ(v.cpu.fp32_fpu.flops_per_cycle(Precision::fp32),
            knl().fp32_fpu.flops_per_cycle(Precision::fp32));
}

TEST(Variant, FactorsScaleBaseValues) {
  const auto v = derive_variant(knl(), "dram-bw=1.5+cores=1.25+tdp=0.85");
  EXPECT_NEAR(v.cpu.dram_bw_gbs, 71.0 * 1.5, 1e-9);
  EXPECT_EQ(v.cpu.cores, 80);  // 64 * 1.25
  EXPECT_NEAR(v.cpu.tdp_w, 230.0 * 0.85, 1e-9);
  const auto w = derive_variant(knl(), "widen-fp32=2+mcdram-cap=2");
  EXPECT_EQ(w.cpu.fp32_fpu.units, 4);
  EXPECT_NEAR(w.cpu.mcdram_gib, 32.0, 1e-9);
  // Defaults when the factor is omitted.
  EXPECT_NEAR(derive_variant(knl(), "mcdram-bw").cpu.mcdram_bw_gbs,
              439.0 * 1.5, 1e-9);
}

TEST(Variant, RejectsMalformedAndInconsistentSpecs) {
  EXPECT_THROW(derive_variant(knl(), "no-such-transform"),
               std::invalid_argument);
  EXPECT_THROW(derive_variant(knl(), "dram-bw=0"), std::invalid_argument);
  EXPECT_THROW(derive_variant(knl(), "dram-bw=abc"), std::invalid_argument);
  EXPECT_THROW(derive_variant(knl(), "dram-bw=1.5junk"),
               std::invalid_argument);
  EXPECT_THROW(derive_variant(knl(), "halve-fp64=2"), std::invalid_argument);
  EXPECT_THROW(derive_variant(knl(), "widen-fp32=1.5"),
               std::invalid_argument);
  EXPECT_THROW(derive_variant(knl(), "dram-bw=1.5++cores=2"),
               std::invalid_argument);
  // MCDRAM transforms need MCDRAM.
  EXPECT_THROW(derive_variant(bdw(), "mcdram-bw=1.5"), std::invalid_argument);
  EXPECT_THROW(derive_variant(bdw(), "mcdram-cap=2"), std::invalid_argument);
  // A composed machine must still validate: DDR faster than MCDRAM is
  // rejected by CpuSpec::validate, not silently accepted.
  EXPECT_THROW(derive_variant(knl(), "dram-bw=10"), std::invalid_argument);
  // A result that does not fit its field is rejected before any cast:
  // 64e12 cores overflow an int, as do 3e9 FP32 pipes and 2 x INT_MAX;
  // a bandwidth of 90 x 1e308 GB/s is not finite.
  for (const char* spec : {"cores=1e12", "widen-fp32=3e9",
                           "widen-fp32=2147483647", "dram-bw=1e308"}) {
    EXPECT_THROW(derive_variant(knl(), spec), std::invalid_argument) << spec;
  }
  // An MCDRAM too large to simulate is still a machine; the memory
  // simulator refuses it, naming the machine and the level.
  for (const char* spec : {"mcdram-cap=1e9", "mcdram-cap=1e12",
                           "mcdram-cap=1e300"}) {
    const auto v = derive_variant(knl(), spec);
    try {
      const memsim::Hierarchy h(v.cpu, model::kDefaultScaleShift);
      ADD_FAILURE() << spec << " built a hierarchy";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(v.cpu.short_name), std::string::npos) << msg;
      EXPECT_NE(msg.find("MCDRAM$"), std::string::npos) << msg;
    }
  }
}

TEST(Variant, CanonicalDigestIsSpellingInvariant) {
  // Order-equivalent compositions resolve to the same machine.
  const auto ab = derive_variant(knl(), "cores=2+tdp=0.9");
  const auto ba = derive_variant(knl(), "tdp=0.9+cores=2");
  EXPECT_NE(ab.cpu.short_name, ba.cpu.short_name);  // labels differ...
  EXPECT_EQ(canonical_cpu_digest(ab.cpu), canonical_cpu_digest(ba.cpu));
  // ...as do factor respellings of one number.
  EXPECT_EQ(canonical_cpu_digest(derive_variant(knl(), "dram-bw=1.5").cpu),
            canonical_cpu_digest(derive_variant(knl(), "dram-bw=1.50").cpu));
  // Distinct machines stay distinct, including across bases.
  EXPECT_NE(canonical_cpu_digest(ab.cpu), canonical_cpu_digest(knl()));
  EXPECT_NE(canonical_cpu_digest(knl()), canonical_cpu_digest(knm()));
  EXPECT_NE(canonical_cpu_digest(derive_variant(knl(), "dram-bw=1.5").cpu),
            canonical_cpu_digest(derive_variant(knl(), "dram-bw=1.25").cpu));
}

TEST(Variant, MemoryModelDigestIgnoresComputeOnlyKnobs) {
  // TDP and FPU respins don't touch what the memory model reads...
  EXPECT_EQ(memory_model_digest(knl()),
            memory_model_digest(derive_variant(knl(), "tdp=0.85").cpu));
  EXPECT_EQ(memory_model_digest(knl()),
            memory_model_digest(derive_variant(knl(), "halve-fp64").cpu));
  // ...while bandwidth, capacity, and core-count changes do.
  EXPECT_NE(memory_model_digest(knl()),
            memory_model_digest(derive_variant(knl(), "mcdram-bw=1.5").cpu));
  EXPECT_NE(memory_model_digest(knl()),
            memory_model_digest(derive_variant(knl(), "cores=1.25").cpu));
}

TEST(Variant, ComposeAndCountSpecs) {
  EXPECT_EQ(compose_specs("", ""), "");
  EXPECT_EQ(compose_specs("a", ""), "a");
  EXPECT_EQ(compose_specs("", "b"), "b");
  EXPECT_EQ(compose_specs("a+b", "c"), "a+b+c");
  EXPECT_EQ(spec_transform_count(""), 0u);
  EXPECT_EQ(spec_transform_count("halve-fp64"), 1u);
  EXPECT_EQ(spec_transform_count("a+b+c"), 3u);
}

TEST(Variant, BudgetModelTracksTheSiliconStory) {
  const auto base_budget = variant_budget(knl(), knl());
  EXPECT_DOUBLE_EQ(base_budget.area_ratio, 1.0);
  EXPECT_DOUBLE_EQ(base_budget.tdp_ratio, 1.0);
  EXPECT_TRUE(within_budget(base_budget, BudgetLimits{}));
  // Cutting FP64 silicon frees area at constant TDP.
  const auto cut = variant_budget(derive_variant(knl(), "halve-fp64").cpu,
                                  knl());
  EXPECT_LT(cut.area_ratio, 1.0);
  EXPECT_DOUBLE_EQ(cut.tdp_ratio, 1.0);
  // More cores cost area; a TDP factor moves only the power ratio.
  EXPECT_GT(variant_budget(derive_variant(knl(), "cores=1.25").cpu, knl())
                .area_ratio,
            1.0);
  const auto cooler = variant_budget(derive_variant(knl(), "tdp=0.85").cpu,
                                     knl());
  EXPECT_DOUBLE_EQ(cooler.area_ratio, 1.0);
  EXPECT_NEAR(cooler.tdp_ratio, 0.85, 1e-12);
  // The default box rejects bigger dies and accepts within-slack ties.
  EXPECT_FALSE(within_budget(ResourceBudget{1.01, 1.0}, BudgetLimits{}));
  EXPECT_TRUE(within_budget(ResourceBudget{1.0 + 1e-12, 1.0},
                            BudgetLimits{}));
  EXPECT_GT(die_area_units(knl()), 0.0);
  CpuSpec broken = knl();
  broken.tdp_w = 0.0;
  EXPECT_THROW((void)variant_budget(knl(), broken), std::invalid_argument);
}

TEST(Variant, CatalogueCoversBuiltinGrid) {
  const auto& catalogue = transform_catalogue();
  EXPECT_GE(catalogue.size(), 6u);
  for (const auto& base : all_machines()) {
    for (const auto& spec : builtin_variant_specs(base)) {
      const std::string name = spec.substr(0, spec.find('='));
      const bool known =
          std::any_of(catalogue.begin(), catalogue.end(),
                      [&](const TransformInfo& t) { return t.name == name; });
      EXPECT_TRUE(known) << spec;
    }
  }
}

}  // namespace
}  // namespace fpr::arch
