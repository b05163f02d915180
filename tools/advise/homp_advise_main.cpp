/// \file homp_advise_main.cpp
/// The homp-advise command-line driver (docs/OBSERVABILITY.md "The
/// offline advisor").
///
///   homp-advise report FILE... [--json] [--top N] [--bias-threshold X]
///   homp-advise diff A B [--tolerance R] [--json]
///
/// `report` ingests any mix of HOMP observability artifacts — decision
/// audits, serve audits, metrics registries, chrome traces — as one
/// session, runs the attribution engine, and prints the ranked findings,
/// then each trace's summary rows (text mode only).
/// `diff` compares two artifacts of the same kind (bench records,
/// metrics, audits, traces) with direction-aware tolerance.
///
/// Exit codes, report mode:  0 = no findings,
///                           1 = findings printed,
///                           2 = unusable input (unreadable, malformed,
///                               empty audit, no backfilled actuals,
///                               degenerate trace).
/// Exit codes, diff mode:    0 = identical within tolerance,
///                           1 = regressions found,
///                           2 = unusable input.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "advise/attribution.h"
#include "advise/report.h"
#include "advise/session.h"
#include "common/error.h"

namespace {

void usage(std::ostream& os) {
  os << "usage: homp-advise report FILE... [options]\n"
        "       homp-advise diff A B [options]\n"
        "\n"
        "report: attribute performance loss across one or more runs'\n"
        "observability artifacts (decision audits, serve audits, metrics,\n"
        "chrome traces, in any mix) and print ranked findings, then each\n"
        "trace's summary rows.\n"
        "  --json              machine-readable findings (no trace rows)\n"
        "  --top N             print only the top N findings\n"
        "  --bias-threshold X  under/over-prediction fires at\n"
        "                      actual/predicted >= X (default 1.5)\n"
        "\n"
        "diff: compare two artifacts of the same kind (bench record,\n"
        "metrics, audit, trace); direction-aware, throughput down or\n"
        "latency or makespan up past tolerance is a regression.\n"
        "  --tolerance R       relative tolerance (default 0.15)\n"
        "  --json              machine-readable verdict\n";
}

double parse_double(const std::string& flag, const char* value) {
  char* end = nullptr;
  const double v = std::strtod(value, &end);
  if (end == nullptr || *end != '\0') {
    throw homp::ConfigError(flag + " needs a number, got '" +
                            std::string(value) + "'");
  }
  return v;
}

int run_report(const std::vector<std::string>& files, bool json,
               std::size_t top, const homp::advise::AttributionOptions& opt) {
  using namespace homp::advise;
  if (files.empty()) {
    throw homp::ConfigError("report needs at least one artifact file");
  }
  Session session;
  for (const std::string& f : files) session.load(f);
  HOMP_REQUIRE(!session.runs.empty() || !session.serve_runs.empty() ||
                   !session.traces.empty(),
               "session holds no audits or traces to attribute (metrics "
               "alone carry no decision evidence)");

  // An offload session whose decision streams never saw a backfilled
  // actual cannot be attributed at all — refuse loudly rather than
  // printing an empty report that reads as "all clear".
  if (!session.runs.empty()) {
    bool any_actual = false;
    for (const RunAudit& run : session.runs) {
      for (const AuditDecision& d : run.decisions) {
        if (d.kind == "chunk-assigned" && d.actual_s > 0.0) {
          any_actual = true;
          break;
        }
      }
    }
    HOMP_REQUIRE(any_actual,
                 "no decision in any audit carries a backfilled actual_s; "
                 "rerun the offload to completion with collect_audit");
  }

  const std::vector<Inspection> findings = attribute(session, opt);
  if (json) {
    write_report_json(findings, std::cout, top);
  } else {
    write_report(findings, std::cout, top);
    for (const TraceEvidence& tr : session.traces) {
      std::cout << '\n';
      write_trace_rows(tr, std::cout);
    }
  }
  return findings.empty() ? 0 : 1;
}

int run_diff(const std::string& a, const std::string& b, double tolerance,
             bool json) {
  using namespace homp::advise;
  const Json before = Json::parse_file(a);
  const Json after = Json::parse_file(b);
  const DiffResult r = diff_artifacts(before, after, tolerance);
  if (json) {
    write_diff_json(r, tolerance, std::cout);
  } else {
    write_diff(r, tolerance, std::cout);
  }
  return r.regressions.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      usage(std::cerr);
      return 2;
    }
    const std::string mode = argv[1];
    if (mode == "--help" || mode == "-h") {
      usage(std::cout);
      return 0;
    }

    bool json = false;
    std::size_t top = 0;
    double tolerance = 0.15;
    homp::advise::AttributionOptions opt;
    std::vector<std::string> files;

    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw homp::ConfigError(arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--json") {
        json = true;
      } else if (arg == "--top") {
        const double n = parse_double(arg, value());
        HOMP_REQUIRE(n >= 0.0 && n == std::floor(n) && n < 1e15,
                     "--top needs a non-negative integer");
        top = static_cast<std::size_t>(n);
      } else if (arg == "--bias-threshold") {
        opt.bias_threshold = parse_double(arg, value());
        HOMP_REQUIRE(opt.bias_threshold > 1.0,
                     "--bias-threshold must be > 1");
      } else if (arg == "--tolerance") {
        tolerance = parse_double(arg, value());
        HOMP_REQUIRE(tolerance >= 0.0, "--tolerance must be >= 0");
      } else if (arg == "--help" || arg == "-h") {
        usage(std::cout);
        return 0;
      } else if (!arg.empty() && arg[0] == '-') {
        throw homp::ConfigError("unknown argument '" + arg + "'");
      } else {
        files.push_back(arg);
      }
    }

    if (mode == "report") {
      return run_report(files, json, top, opt);
    }
    if (mode == "diff") {
      if (files.size() != 2) {
        throw homp::ConfigError("diff needs exactly two files");
      }
      return run_diff(files[0], files[1], tolerance, json);
    }
    throw homp::ConfigError("unknown mode '" + mode +
                            "' (report or diff)");
  } catch (const std::exception& e) {
    std::cerr << "homp-advise: " << e.what() << "\n";
    return 2;
  }
}
