#include "pragma/parse.h"

#include <cctype>

#include "common/error.h"
#include "common/strings.h"
#include "sched/algorithm.h"

namespace homp::pragma {

namespace {

/// One clause: a keyword plus optional parenthesized argument text.
struct Clause {
  std::string name;
  std::string args;
  bool has_args = false;
  std::size_t offset = 0;  // into the directive string, for diagnostics
};

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Split a directive into clauses, honouring nested parentheses/brackets.
std::vector<Clause> lex_clauses(const std::string& text) {
  std::vector<Clause> out;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    if (!ident_char(text[i])) {
      throw ParseError("unexpected character '" + std::string(1, text[i]) +
                           "' in directive",
                       i);
    }
    Clause c;
    c.offset = i;
    while (i < n && ident_char(text[i])) c.name += text[i++];
    while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i < n && text[i] == '(') {
      int depth = 0;
      const std::size_t start = ++i;
      ++depth;
      while (i < n && depth > 0) {
        if (text[i] == '(' || text[i] == '[') ++depth;
        if (text[i] == ')' || text[i] == ']') --depth;
        ++i;
      }
      if (depth != 0) throw ParseError("unbalanced parentheses", c.offset);
      c.args = text.substr(start, i - start - 1);
      c.has_args = true;
    }
    out.push_back(std::move(c));
  }
  return out;
}

mem::MapDirection direction_from(const std::string& s, std::size_t off) {
  if (iequals(s, "to")) return mem::MapDirection::kTo;
  if (iequals(s, "from")) return mem::MapDirection::kFrom;
  if (iequals(s, "tofrom")) return mem::MapDirection::kToFrom;
  if (iequals(s, "alloc")) return mem::MapDirection::kAlloc;
  throw ParseError("unknown map direction '" + s + "'", off);
}

/// Parse one mapped item: name, optional [lo:len]... sections, optional
/// partition(...) and halo(...).
ParsedMapEntry parse_map_item(const std::string& item, std::size_t off) {
  ParsedMapEntry e;
  std::size_t i = 0;
  const std::size_t n = item.size();
  while (i < n && std::isspace(static_cast<unsigned char>(item[i]))) ++i;
  while (i < n && ident_char(item[i])) e.name += item[i++];
  if (e.name.empty()) {
    throw ParseError("expected a variable name in map clause", off);
  }
  // Array sections.
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(item[i]))) ++i;
    if (i >= n || item[i] != '[') break;
    const std::size_t start = ++i;
    int depth = 1;
    while (i < n && depth > 0) {
      if (item[i] == '[') ++depth;
      if (item[i] == ']') --depth;
      ++i;
    }
    if (depth != 0) throw ParseError("unbalanced '[' in array section", off);
    const std::string body = item.substr(start, i - start - 1);
    auto parts = split_top_level(body, ':');
    if (parts.size() != 2 || parts[0].empty() || parts[1].empty()) {
      throw ParseError("array section must be [lower:length], got [" + body +
                           "]",
                       off);
    }
    e.sections.emplace_back(parts[0], parts[1]);
  }
  e.is_scalar = e.sections.empty();

  // Trailing modifiers: partition(...) and halo(...).
  while (i < n) {
    while (i < n && std::isspace(static_cast<unsigned char>(item[i]))) ++i;
    if (i >= n) break;
    std::string word;
    const std::size_t word_off = off + i;
    while (i < n && ident_char(item[i])) word += item[i++];
    while (i < n && std::isspace(static_cast<unsigned char>(item[i]))) ++i;
    if (i >= n || item[i] != '(') {
      throw ParseError("unexpected token '" + word + "' after map item",
                       word_off);
    }
    int depth = 1;
    const std::size_t start = ++i;
    while (i < n && depth > 0) {
      if (item[i] == '(' || item[i] == '[') ++depth;
      if (item[i] == ')' || item[i] == ']') --depth;
      ++i;
    }
    if (depth != 0) throw ParseError("unbalanced '(' after " + word, word_off);
    const std::string args = item.substr(start, i - start - 1);

    if (iequals(word, "partition")) {
      if (e.is_scalar) {
        throw ParseError("scalar '" + e.name + "' cannot take partition()",
                         word_off);
      }
      for (auto& piece : split_top_level(args, ',')) {
        // The paper brackets per-dimension policies: partition([BLOCK]) or
        // partition([ALIGN(loop1)], FULL). Strip one bracket layer.
        std::string_view v = trim(piece);
        if (!v.empty() && v.front() == '[' && v.back() == ']') {
          v = trim(v.substr(1, v.size() - 2));
        }
        e.partition.push_back(dist::parse_dim_policy(std::string(v)));
      }
      if (e.partition.size() != e.sections.size()) {
        throw ParseError("partition() of '" + e.name + "' gives " +
                             std::to_string(e.partition.size()) +
                             " policies for " +
                             std::to_string(e.sections.size()) +
                             " dimensions",
                         word_off);
      }
    } else if (iequals(word, "halo")) {
      auto parts = split_top_level(args, ',');
      if (parts.empty() || parts.size() > 2 || parts[0].empty()) {
        throw ParseError("halo takes (before[, after])", word_off);
      }
      e.halo_before = parse_scaled_int(parts[0]);
      // halo(1,) — an empty or omitted second width mirrors the first.
      e.halo_after = (parts.size() == 2 && !parts[1].empty())
                         ? parse_scaled_int(parts[1])
                         : e.halo_before;
    } else {
      throw ParseError("unknown map modifier '" + word + "'", word_off);
    }
  }
  return e;
}

void parse_map_clause(const Clause& c, ParsedDirective* d) {
  auto colon = c.args.find(':');
  // Direction defaults to tofrom when omitted (OpenMP default behaviour),
  // but only if the text before a colon is not a direction keyword.
  mem::MapDirection dir = mem::MapDirection::kToFrom;
  std::string rest = c.args;
  if (colon != std::string::npos) {
    const std::string head(trim(c.args.substr(0, colon)));
    bool is_dir = iequals(head, "to") || iequals(head, "from") ||
                  iequals(head, "tofrom") || iequals(head, "alloc");
    if (is_dir) {
      dir = direction_from(head, c.offset);
      rest = c.args.substr(colon + 1);
    }
  }
  for (auto& item : split_top_level(rest, ',')) {
    if (item.empty()) {
      throw ParseError("empty item in map clause", c.offset);
    }
    ParsedMapEntry e = parse_map_item(item, c.offset);
    e.dir = dir;
    d->maps.push_back(std::move(e));
  }
}

double parse_fraction(const std::string& s, std::size_t off) {
  std::string_view v = trim(s);
  bool percent = false;
  if (!v.empty() && v.back() == '%') {
    percent = true;
    v.remove_suffix(1);
  }
  try {
    std::size_t pos = 0;
    double x = std::stod(std::string(v), &pos);
    if (pos != v.size()) throw std::invalid_argument("trailing");
    return percent ? x / 100.0 : x;
  } catch (const std::exception&) {
    throw ParseError("malformed fraction '" + s + "'", off);
  }
}

void parse_dist_schedule(const Clause& c, ParsedDirective* d) {
  auto colon = c.args.find(':');
  if (colon == std::string::npos) {
    throw ParseError(
        "dist_schedule needs a 'target:' or 'teams:' directive-name "
        "modifier",
        c.offset);
  }
  const std::string modifier(trim(c.args.substr(0, colon)));
  if (iequals(modifier, "teams")) {
    // Within-device distribution across the device's parallel units.
    const std::string tail0 = c.args.substr(colon + 1);
    std::string_view tv = trim(tail0);
    if (!tv.empty() && tv.front() == '[' && tv.back() == ']') {
      tv = trim(tv.substr(1, tv.size() - 2));
    }
    const auto pol = dist::parse_dim_policy(std::string(tv));
    if (pol.kind != dist::PolicyKind::kBlock &&
        pol.kind != dist::PolicyKind::kCyclic) {
      throw ParseError(
          "dist_schedule(teams:...) supports BLOCK or CYCLIC", c.offset);
    }
    d->teams_policy = pol.kind;
    return;
  }
  if (!iequals(modifier, "target")) {
    throw ParseError("unknown dist_schedule modifier '" + modifier + "'",
                     c.offset);
  }
  const std::string tail = c.args.substr(colon + 1);
  std::string_view v = trim(tail);
  if (!v.empty() && v.front() == '[' && v.back() == ']') {
    v = trim(v.substr(1, v.size() - 2));
  }
  const std::string body(v);
  d->has_dist_schedule = true;

  // Either a Table I policy (AUTO / BLOCK / ALIGN(x)) or — extension — a
  // Table II algorithm with optional tuning arguments.
  auto paren = body.find('(');
  const std::string head(
      trim(paren == std::string::npos ? body : body.substr(0, paren)));
  std::string args;
  if (paren != std::string::npos) {
    if (body.back() != ')') {
      throw ParseError("unbalanced '(' in dist_schedule", c.offset);
    }
    args = body.substr(paren + 1, body.size() - paren - 2);
  }

  if (iequals(head, "AUTO") || iequals(head, "BLOCK") ||
      iequals(head, "ALIGN")) {
    d->loop_policy = dist::parse_dim_policy(body);
    if (iequals(head, "BLOCK")) {
      d->sched.kind = sched::AlgorithmKind::kBlock;
      d->sched_given = true;
    }
    return;
  }
  // CYCLIC(16) is the Table I policy with an absolute block size;
  // CYCLIC(2%) is the algorithm spelling with a loop-relative block.
  if (iequals(head, "CYCLIC") && args.find('%') == std::string::npos) {
    d->loop_policy = dist::parse_dim_policy(body);
    d->sched.kind = sched::AlgorithmKind::kCyclic;
    d->sched_given = true;
    return;
  }

  // Algorithm keyword path.
  d->loop_policy = dist::DimPolicy::auto_();
  d->sched.kind = sched::algorithm_from_string(head);
  d->sched_given = true;
  auto pieces = args.empty() ? std::vector<std::string>{}
                             : split_top_level(args, ',');
  switch (d->sched.kind) {
    case sched::AlgorithmKind::kDynamic:
      if (pieces.size() > 1) {
        throw ParseError("SCHED_DYNAMIC takes at most (chunk%)", c.offset);
      }
      if (!pieces.empty()) {
        d->sched.dynamic_chunk_fraction = parse_fraction(pieces[0], c.offset);
      }
      break;
    case sched::AlgorithmKind::kGuided:
      if (pieces.size() > 1) {
        throw ParseError("SCHED_GUIDED takes at most (chunk%)", c.offset);
      }
      if (!pieces.empty()) {
        d->sched.guided_chunk_fraction = parse_fraction(pieces[0], c.offset);
      }
      break;
    case sched::AlgorithmKind::kModel1Auto:
    case sched::AlgorithmKind::kModel2Auto:
      if (pieces.size() > 1) {
        throw ParseError("model algorithms take at most (cutoff%)", c.offset);
      }
      if (!pieces.empty()) {
        d->sched.cutoff_ratio = parse_fraction(pieces[0], c.offset);
      }
      break;
    case sched::AlgorithmKind::kSchedProfileAuto:
    case sched::AlgorithmKind::kModelProfileAuto:
      if (pieces.size() > 2) {
        throw ParseError("profiling algorithms take at most (sample%, cutoff%)",
                         c.offset);
      }
      if (!pieces.empty()) {
        d->sched.sample_fraction = parse_fraction(pieces[0], c.offset);
      }
      if (pieces.size() == 2) {
        d->sched.cutoff_ratio = parse_fraction(pieces[1], c.offset);
      }
      break;
    case sched::AlgorithmKind::kCyclic:
      if (pieces.size() > 1) {
        throw ParseError("CYCLIC takes at most (block%)", c.offset);
      }
      if (!pieces.empty()) {
        d->sched.cyclic_block_fraction = parse_fraction(pieces[0], c.offset);
      }
      break;
    case sched::AlgorithmKind::kWorkStealing:
      if (pieces.size() > 1) {
        throw ParseError("WORK_STEALING takes at most (grain%)", c.offset);
      }
      if (!pieces.empty()) {
        d->sched.steal_grain_fraction = parse_fraction(pieces[0], c.offset);
      }
      break;
    case sched::AlgorithmKind::kHistoryAuto:
      if (pieces.size() > 1) {
        throw ParseError("HISTORY_AUTO takes at most (cutoff%)", c.offset);
      }
      if (!pieces.empty()) {
        d->sched.cutoff_ratio = parse_fraction(pieces[0], c.offset);
      }
      break;
    case sched::AlgorithmKind::kBlock:
      break;
  }
}

}  // namespace

long long Symbols::resolve(const std::string& raw) const {
  const std::string expr(trim(raw));
  HOMP_REQUIRE(!expr.empty(), "empty array-section expression");
  if (std::isdigit(static_cast<unsigned char>(expr[0]))) {
    return parse_scaled_int(expr);
  }
  auto it = values.find(expr);
  HOMP_REQUIRE(it != values.end(),
               "unbound symbol '" + expr + "' in array section (add it to "
               "Bindings::let)");
  return it->second;
}

ParsedDirective parse_directive(const std::string& raw) {
  std::string text(trim(raw));
  // Strip an optional "#pragma omp" prefix (and line continuations).
  for (std::size_t pos = 0; (pos = text.find('\\', pos)) != std::string::npos;) {
    text[pos] = ' ';
  }
  if (starts_with(text, "#pragma")) {
    text = std::string(trim(text.substr(7)));
  }
  if (starts_with(text, "omp")) {
    text = std::string(trim(text.substr(3)));
  }

  auto clauses = lex_clauses(text);
  HOMP_REQUIRE(!clauses.empty(), "empty directive");

  ParsedDirective d;
  bool saw_target = false;
  for (const auto& c : clauses) {
    if (iequals(c.name, "parallel")) {
      d.parallel = true;
    } else if (iequals(c.name, "target")) {
      saw_target = true;
    } else if (iequals(c.name, "data")) {
      d.kind = ParsedDirective::Kind::kTargetData;
    } else if (iequals(c.name, "for") || iequals(c.name, "distribute") ||
               iequals(c.name, "teams") || iequals(c.name, "simd")) {
      // Worksharing within a device — structure only, no multi-device
      // semantics to extract.
    } else if (iequals(c.name, "device")) {
      if (!c.has_args) throw ParseError("device needs arguments", c.offset);
      d.device_clause = c.args;
    } else if (iequals(c.name, "map")) {
      if (!c.has_args) throw ParseError("map needs arguments", c.offset);
      parse_map_clause(c, &d);
    } else if (iequals(c.name, "dist_schedule")) {
      if (!c.has_args) {
        throw ParseError("dist_schedule needs arguments", c.offset);
      }
      parse_dist_schedule(c, &d);
    } else if (iequals(c.name, "collapse")) {
      if (!c.has_args) throw ParseError("collapse needs (k)", c.offset);
      d.collapse = static_cast<int>(parse_scaled_int(c.args));
      if (d.collapse < 1) {
        throw ParseError("collapse depth must be >= 1", c.offset);
      }
    } else if (iequals(c.name, "reduction")) {
      if (!c.has_args) throw ParseError("reduction needs (+:var)", c.offset);
      auto colon = c.args.find(':');
      if (colon == std::string::npos ||
          std::string(trim(c.args.substr(0, colon))) != "+") {
        throw ParseError("only reduction(+:var) is supported", c.offset);
      }
      d.has_reduction = true;
      d.reduction_var = std::string(trim(c.args.substr(colon + 1)));
    } else if (iequals(c.name, "label")) {
      if (!c.has_args) throw ParseError("label needs (name)", c.offset);
      d.loop_label = std::string(trim(c.args));
    } else if (iequals(c.name, "halo_exchange")) {
      if (!c.has_args) {
        throw ParseError("halo_exchange needs (array)", c.offset);
      }
      d.kind = ParsedDirective::Kind::kHaloExchange;
      d.halo_array = std::string(trim(c.args));
    } else if (iequals(c.name, "shared") || iequals(c.name, "private") ||
               iequals(c.name, "firstprivate") || iequals(c.name, "num_threads")) {
      // Standard OpenMP data-sharing clauses: captured by the kernel body
      // closure in this embedding; accepted and ignored.
    } else {
      throw ParseError("unknown clause '" + c.name + "'", c.offset);
    }
  }
  // Loop-only directives (Fig. 2 line 6: "parallel for distribute
  // dist_schedule(...)") carry no target; anything that names devices or
  // maps data must be a target construct.
  if (d.kind != ParsedDirective::Kind::kHaloExchange &&
      (!d.device_clause.empty() || !d.maps.empty() ||
       (!saw_target && !d.has_dist_schedule))) {
    HOMP_REQUIRE(saw_target, "directive has no 'target' construct");
  }
  return d;
}

std::vector<int> resolve_device_clause(const std::string& clause,
                                       const mach::MachineDescriptor& m) {
  const int total = static_cast<int>(m.devices.size());
  std::vector<int> out;
  auto add = [&](int id) {
    HOMP_REQUIRE(id >= 0 && id < total,
                 "device id " + std::to_string(id) + " out of range (machine "
                 "has " +
                     std::to_string(total) + " devices)");
    for (int seen : out) {
      HOMP_REQUIRE(seen != id,
                   "device " + std::to_string(id) + " listed twice");
    }
    out.push_back(id);
  };

  for (auto& spec : split_top_level(clause, ',')) {
    HOMP_REQUIRE(!spec.empty(), "empty device specifier");
    auto fields = split(spec, ':');
    HOMP_REQUIRE(fields.size() <= 3,
                 "device specifier has too many fields: '" + spec + "'");
    // Bare "*" is shorthand for 0:*.
    int initial = 0;
    std::string nums = "1";
    std::string filter;
    if (fields[0] == "*") {
      HOMP_REQUIRE(fields.size() == 1, "'*' takes no further fields");
      nums = "*";
    } else {
      initial = static_cast<int>(parse_scaled_int(fields[0]));
      if (fields.size() >= 2) nums = fields[1].empty() ? "*" : fields[1];
      if (fields.size() == 3) filter = fields[2];
    }

    const bool all = nums == "*";
    const long long want = all ? -1 : parse_scaled_int(nums);
    HOMP_REQUIRE(all || want >= 1,
                 "device count must be >= 1 in '" + spec + "'");
    long long taken = 0;
    for (int id = initial; id < total; ++id) {
      if (!filter.empty() &&
          m.devices[static_cast<std::size_t>(id)].type !=
              mach::device_type_from_string(filter)) {
        continue;
      }
      add(id);
      if (!all && ++taken == want) break;
    }
    if (!all) {
      HOMP_REQUIRE(taken == want,
                   "device specifier '" + spec + "' asked for " +
                       std::to_string(want) + " devices but only " +
                       std::to_string(taken) + " matched");
    }
  }
  HOMP_REQUIRE(!out.empty(), "device clause selects no devices");
  return out;
}

std::vector<mem::MapSpec> build_map_specs(const ParsedDirective& d,
                                          const Bindings& b) {
  std::vector<mem::MapSpec> out;
  for (const auto& e : d.maps) {
    if (e.is_scalar) continue;  // scalars travel by value with the body
    auto it = b.arrays.find(e.name);
    HOMP_REQUIRE(it != b.arrays.end(),
                 "no storage bound for mapped array '" + e.name + "'");
    mem::MapSpec s;
    s.name = e.name;
    s.dir = e.dir;
    s.binding = it->second;
    HOMP_REQUIRE(e.sections.size() == s.binding.rank(),
                 "array section rank of '" + e.name +
                     "' does not match bound storage");
    std::vector<dist::Range> dims;
    for (const auto& [lo_expr, len_expr] : e.sections) {
      const long long lo = b.symbols.resolve(lo_expr);
      const long long len = b.symbols.resolve(len_expr);
      HOMP_REQUIRE(lo >= 0 && len >= 0,
                   "negative array section on '" + e.name + "'");
      dims.emplace_back(lo, lo + len);
    }
    s.region = dist::Region(dims);
    s.partition = e.partition;
    s.halo_before = e.halo_before;
    s.halo_after = e.halo_after;
    s.validate();
    out.push_back(std::move(s));
  }
  return out;
}

rt::OffloadOptions to_offload_options(const ParsedDirective& d,
                                      const mach::MachineDescriptor& m) {
  HOMP_REQUIRE(d.kind == ParsedDirective::Kind::kTarget,
               "to_offload_options expects a target directive");
  HOMP_REQUIRE(!d.device_clause.empty(),
               "target directive has no device(...) clause");
  rt::OffloadOptions o;
  o.device_ids = resolve_device_clause(d.device_clause, m);
  o.loop_policy = d.loop_policy;
  o.loop_label = d.loop_label;
  o.teams_policy = d.teams_policy;
  o.parallel_offload = d.parallel;
  if (d.sched_given) {
    o.sched = d.sched;
  } else if (d.loop_policy.kind == dist::PolicyKind::kAuto) {
    o.auto_select_algorithm = true;  // plain AUTO: heuristic selection
  }
  return o;
}

}  // namespace homp::pragma
