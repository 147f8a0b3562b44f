// The `fpr` suite-runner: one driveable entry point over the whole
// reproduction (list, tables, run, study, memsim, trace, the trace-record,
// trace-convert, trace-dump and trace-info trace-file tools, explore,
// pareto, diff, report). Each command is one entry of the command table in
// cli.cpp: its positional arguments, the options it takes (each with its
// value placeholder, help line and checks), and its handler. Parsing,
// `fpr help` and `fpr <command> --help` are all generated from that
// table, and an option the command does not take is a usage error.
//
// The command core is a library function taking explicit streams so the
// CLI is testable without spawning processes; src/cli/main.cpp is the
// only piece that touches argv/std::cout.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace fpr::cli {

/// Process exit codes, shared by every fpr subcommand. Named so
/// exit-path meaning stays greppable —
/// the bare-exit-code lint rule rejects integer literals in `return`
/// statements of command handlers.
inline constexpr int kExitOk = 0;        ///< command succeeded
inline constexpr int kExitFailure = 1;   ///< ran, but failed (I/O, verify)
inline constexpr int kExitUsage = 2;     ///< bad flags / unknown command
inline constexpr int kExitBadInput = 3;  ///< well-formed flags, bad data

/// Execute the `fpr` command line. `args` excludes the program name.
/// Normal output goes to `out`, diagnostics/usage errors to `err`.
/// Returns the process exit code (kExitOk, kExitUsage on usage errors,
/// kExitFailure on runtime errors, kExitBadInput on malformed inputs).
int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err);

}  // namespace fpr::cli
