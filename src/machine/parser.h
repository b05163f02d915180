#ifndef HOMP_MACHINE_PARSER_H
#define HOMP_MACHINE_PARSER_H

/// \file parser.h
/// Machine-description file reader/writer.
///
/// The paper's runtime "reads from a given machine description file the
/// specification of host CPU and accelerators". We use a small INI-style
/// format:
///
///     [machine]
///     name = full
///
///     [link pcie0]
///     latency_us = 11
///     bandwidth_GBps = 11
///
///     [device K40-0]
///     type = nvgpu            # host | nvgpu | mic
///     memory = discrete       # shared | discrete
///     link = pcie0            # link name, or "none"
///     peak_gflops = 1430
///     sustained_gflops = 1100
///     peak_membw_GBps = 288
///     sustained_membw_GBps = 210
///     launch_overhead_us = 15
///     noise = 0.015
///
/// '#' starts a comment. Section and key order is free, except that exactly
/// one host device must be declared; the host is placed first (device id 0)
/// regardless of file order, and accelerators keep their file order. Every
/// error names its line (the reader is common/toml.h): an unknown key (a
/// misspelled `nosie`), a key repeated in its section, a header repeated
/// anywhere, a number with more after it (`12 GB/s`), and an integer that
/// is not whole or does not fit (`parallel_units = 2.7` or `1e12`). A
/// missing required key fails at its section's header.

#include <string>

#include "machine/device.h"

namespace homp::mach {

/// Parse a machine description from text. Throws ConfigError with a line
/// number on malformed input; the result is validate()d before returning.
MachineDescriptor parse_machine(const std::string& text);

/// Read and parse a description file. Throws ConfigError if unreadable.
MachineDescriptor load_machine_file(const std::string& path);

/// Serialize to the file format (round-trips through parse_machine).
std::string to_text(const MachineDescriptor& m);

}  // namespace homp::mach

#endif  // HOMP_MACHINE_PARSER_H
