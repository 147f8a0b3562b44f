// fpr-trace: record, convert, and inspect fpr-trace v1 binary address
// traces (docs/FORMATS.md). The companion of `fpr trace`, which replays
// these files through the hierarchy simulation.
//
//   fpr-trace record --kernel BABL --machine KNL --out babl-knl.fpt
//   fpr-trace convert accesses.txt accesses.fpt
//   fpr-trace dump accesses.fpt --limit 16
//   fpr-trace info accesses.fpt
//
// `record` captures exactly the reference stream `fpr memsim` would
// simulate for (kernel, machine): the kernel's measured access-pattern
// spec, sliced per core and capacity-scaled, fed through the synthetic
// generator at the fixed profiling seed — with an equal-length warmup
// prefix, so `fpr trace F --warmup REFS` reproduces the memsim row
// bit-for-bit.
//
// Exit codes: 0 ok, 2 usage error, 3 unreadable/malformed input.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/machines.hpp"
#include "io/trace_format.hpp"
#include "kernels/kernel.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/trace_gen.hpp"
#include "model/memprofile.hpp"

namespace {

// Exit codes match the fpr CLI's (src/cli/cli.hpp kExit*): 0 ok,
// 1 runtime error, 2 usage error, 3 unreadable or malformed input.
constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitBadInput = 3;

int usage(std::ostream& err) {
  err << "usage: fpr-trace <command> [options]\n"
         "\n"
         "commands:\n"
         "  record --kernel A --out FILE [options]\n"
         "      record the synthetic reference stream `fpr memsim`\n"
         "      simulates for one kernel on one machine:\n"
         "        --machine M      Table I short name (default KNL)\n"
         "        --refs N         measured references (default 400000)\n"
         "        --warmup N       warmup prefix records (default: refs)\n"
         "        --scale S        kernel input scale (default 0.3)\n"
         "        --scale-shift K  capacity scale-down 2^K (default 8)\n"
         "        --seed N         kernel input seed (default 42)\n"
         "        --threads T      kernel worker threads (default 0 = all)\n"
         "        --chunk N        records per chunk (default 4096)\n"
         "  convert IN.txt OUT.fpt\n"
         "      convert a text trace ('R <addr>' / 'W <addr>' lines,\n"
         "      decimal or 0x-hex, #-comments) to the binary format\n"
         "  dump FILE [--limit N]\n"
         "      print a trace as that same text form (--limit caps rows)\n"
         "  info FILE\n"
         "      print the header summary (records, digest, footprint)\n"
         "\n"
         "exit codes: 0 ok; 2 usage error; 3 unreadable or malformed "
         "input\n";
  return kExitUsage;
}

std::uint64_t parse_u64(const std::string& arg, const std::string& text) {
  if (text.find('-') != std::string::npos) {
    throw std::invalid_argument("invalid value '" + text + "' for " + arg);
  }
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    throw std::invalid_argument("invalid value '" + text + "' for " + arg);
  }
}

/// parse_u64 bounded by `max`, checked on the 64-bit value so a
/// narrowing cast can never wrap an oversized input into range.
unsigned parse_bounded(const std::string& arg, const std::string& text,
                       unsigned max) {
  const std::uint64_t v = parse_u64(arg, text);
  if (v > max) {
    throw std::invalid_argument(arg + " must be <= " + std::to_string(max));
  }
  return static_cast<unsigned>(v);
}

double parse_scale(const std::string& arg, const std::string& text) {
  double v = 0.0;
  try {
    v = std::stod(text);
  } catch (const std::exception&) {
    throw std::invalid_argument("invalid value '" + text + "' for " + arg);
  }
  if (!std::isfinite(v) || v <= 0.0) {
    throw std::invalid_argument(arg + " must be finite and > 0");
  }
  return v;
}

struct Args {
  std::string command;
  std::vector<std::string> positional;
  std::string kernel;
  std::string machine = "KNL";
  std::string out;
  std::uint64_t refs = fpr::model::kDefaultTraceRefs;
  std::uint64_t warmup = 0;
  bool warmup_explicit = false;
  std::uint64_t limit = 0;
  std::uint64_t chunk = fpr::io::kTraceChunkRecords;
  double scale = 0.3;
  unsigned scale_shift = fpr::model::kDefaultScaleShift;
  std::uint64_t seed = 42;
  unsigned threads = 0;
};

int cmd_record(const Args& a) {
  using namespace fpr;
  if (a.kernel.empty()) {
    std::cerr << "fpr-trace record: --kernel is required\n";
    return usage(std::cerr);
  }
  if (a.out.empty()) {
    std::cerr << "fpr-trace record: --out is required\n";
    return usage(std::cerr);
  }
  const auto cpu = arch::find_machine(a.machine);
  if (!cpu) {
    std::cerr << "fpr-trace record: unknown machine '" << a.machine
              << "' (expected a Table I short name)\n";
    return usage(std::cerr);
  }

  std::unique_ptr<kernels::ProxyKernel> kernel;
  try {
    kernel = kernels::make(a.kernel);
  } catch (const std::invalid_argument& e) {
    std::cerr << "fpr-trace record: " << e.what() << "\n";
    return usage(std::cerr);
  }

  kernels::RunConfig rc;
  rc.scale = a.scale;
  rc.threads = a.threads;
  rc.seed = a.seed;
  const auto meas = kernel->run(rc);

  // Exactly memsim::simulate_pattern's generator inputs: per-core slice
  // of the measured spec, then the same capacity scale-down the
  // replaying hierarchy applies, at the fixed profiling seed.
  const auto sliced = model::per_core_slice(meas.access, cpu->cores);
  const auto scaled = memsim::scale_spec(sliced, a.scale_shift);
  memsim::TraceGenerator gen(scaled, model::kProfileSeed);

  const std::uint64_t warmup = a.warmup_explicit ? a.warmup : a.refs;
  const std::uint64_t total = warmup + a.refs;
  io::TraceWriter writer(a.out, static_cast<std::uint32_t>(a.chunk));
  std::vector<memsim::MemRef> block(4096);
  for (std::uint64_t done = 0; done < total;) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(block.size(), total - done));
    gen.fill(block.data(), n);
    writer.append(block.data(), n);
    done += n;
  }
  writer.finish();
  std::cerr << "[fpr-trace] wrote '" << a.out << "': " << total
            << " record(s) (" << warmup << " warmup + " << a.refs
            << " measured), kernel " << a.kernel << " on "
            << cpu->short_name << ", scale-shift " << a.scale_shift << "\n"
            << "[fpr-trace] replay with: fpr trace " << a.out
            << " --machine " << cpu->short_name << " --warmup " << warmup
            << " --scale-shift " << a.scale_shift << "\n";
  return kExitOk;
}

int cmd_convert(const Args& a) {
  using namespace fpr;
  const std::string& in = a.positional[0];
  const std::string& out = a.positional[1];
  std::ifstream text(in);
  if (!text) {
    std::cerr << "fpr-trace convert: cannot read '" << in
              << "': missing or unreadable\n";
    return kExitBadInput;
  }
  io::TraceWriter writer(out, static_cast<std::uint32_t>(a.chunk));
  const std::uint64_t n = io::convert_text_trace(text, writer);
  writer.finish();
  std::cerr << "[fpr-trace] wrote '" << out << "': " << n
            << " record(s), digest " << std::hex << writer.digest()
            << std::dec << "\n";
  return kExitOk;
}

int cmd_dump(const Args& a) {
  fpr::io::TraceReader reader(a.positional[0]);
  const std::uint64_t n = fpr::io::dump_trace_text(reader, std::cout,
                                                   a.limit);
  if (a.limit > 0 && n == a.limit &&
      reader.info().records > a.limit) {
    std::cerr << "[fpr-trace] ... " << (reader.info().records - a.limit)
              << " more record(s)\n";
  }
  return kExitOk;
}

int cmd_info(const Args& a) {
  const auto info = fpr::io::read_trace_info(a.positional[0]);
  char digest[20];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(info.digest));
  std::cout << "file:           " << a.positional[0] << "\n"
            << "records:        " << info.records << "\n"
            << "digest:         " << digest << "\n"
            << "chunk_records:  " << info.chunk_records << "\n"
            << "addr_range:     [0x" << std::hex << info.min_addr << ", 0x"
            << info.max_addr << std::dec << "]\n"
            << "touched_lines:  " << info.touched_lines << "\n"
            << "working_set:    " << info.working_set_bytes() << " bytes\n";
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (argc < 2) return usage(std::cerr);
  a.command = argv[1];
  if (a.command == "--help" || a.command == "-h" || a.command == "help") {
    usage(std::cout);
    return kExitOk;
  }
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) {
          throw std::invalid_argument("option " + arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--kernel") {
        a.kernel = value();
      } else if (arg == "--machine") {
        a.machine = value();
      } else if (arg == "--out") {
        a.out = value();
      } else if (arg == "--refs") {
        a.refs = parse_u64(arg, value());
        if (a.refs == 0) {
          throw std::invalid_argument("--refs must be > 0");
        }
      } else if (arg == "--warmup") {
        a.warmup = parse_u64(arg, value());
        a.warmup_explicit = true;
      } else if (arg == "--limit") {
        a.limit = parse_u64(arg, value());
      } else if (arg == "--chunk") {
        a.chunk = parse_u64(arg, value());
        if (a.chunk == 0 || a.chunk > (1u << 20)) {
          throw std::invalid_argument("--chunk must be in [1, 2^20]");
        }
      } else if (arg == "--scale") {
        a.scale = parse_scale(arg, value());
      } else if (arg == "--scale-shift") {
        a.scale_shift = parse_bounded(arg, value(), 30);
      } else if (arg == "--seed") {
        a.seed = parse_u64(arg, value());
      } else if (arg == "--threads") {
        a.threads = parse_bounded(arg, value(), 4096);
      } else if (arg.rfind("--", 0) == 0) {
        throw std::invalid_argument("unknown option '" + arg + "'");
      } else {
        a.positional.push_back(arg);
      }
    }

    if (a.command == "record") {
      if (!a.positional.empty()) {
        throw std::invalid_argument("record takes no positional arguments");
      }
      return cmd_record(a);
    }
    if (a.command == "convert") {
      if (a.positional.size() != 2) {
        throw std::invalid_argument(
            "convert needs exactly IN.txt and OUT.fpt");
      }
      return cmd_convert(a);
    }
    if (a.command == "dump" || a.command == "info") {
      if (a.positional.size() != 1) {
        throw std::invalid_argument(a.command + " needs exactly one file");
      }
      return a.command == "dump" ? cmd_dump(a) : cmd_info(a);
    }
    std::cerr << "fpr-trace: unknown command '" << a.command << "'\n";
    return usage(std::cerr);
  } catch (const std::invalid_argument& e) {
    std::cerr << "fpr-trace: " << e.what() << "\n";
    return usage(std::cerr);
  } catch (const fpr::io::TraceFormatError& e) {
    std::cerr << "fpr-trace: " << e.what() << "\n";
    return kExitBadInput;
  } catch (const std::exception& e) {
    std::cerr << "fpr-trace: error: " << e.what() << "\n";
    return kExitFailure;
  }
}
