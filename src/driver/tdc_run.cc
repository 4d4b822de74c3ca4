#include "driver/tdc_run.hh"

#include <cerrno>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

#include "common/cpu_features.hh"
#include "common/parallel.hh"
#include "cpu/ipc_campaign.hh"
#include "driver/optimize.hh"
#include "scheme/figure_campaigns.hh"
#include "scheme/scheme.hh"
#include "service/cache_service.hh"
#include "service/request_gen.hh"

namespace tdc
{

// --- RunContext -----------------------------------------------------

void
RunContext::prose(const std::string &text)
{
    if (format_ == RunFormat::kTable)
        text_ += text;
}

void
RunContext::prosef(const char *fmt, ...)
{
    if (format_ != RunFormat::kTable)
        return;
    va_list args;
    va_start(args, fmt);
    char stack_buf[1024];
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(stack_buf, sizeof(stack_buf), fmt,
                                      args);
    if (needed >= 0 && size_t(needed) < sizeof(stack_buf)) {
        text_ += stack_buf;
    } else if (needed >= 0) {
        std::vector<char> big(size_t(needed) + 1);
        std::vsnprintf(big.data(), big.size(), fmt, copy);
        text_ += big.data();
    }
    va_end(copy);
    va_end(args);
}

void
RunContext::table(const CampaignResult &result)
{
    if (format_ == RunFormat::kTable)
        text_ += result.render();
    else
        tables_.push_back({result.title, result.headers, result.rows});
}

void
RunContext::table(const Table &t, const std::string &title)
{
    if (format_ == RunFormat::kTable)
        text_ += t.render();
    else
        tables_.push_back({title, t.headers(), t.data()});
}

namespace
{

std::string
csvCell(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    out += '"';
    return out;
}

} // namespace

std::string
RunContext::str() const
{
    if (format_ == RunFormat::kTable) {
        if (!cacheStats_)
            return text_;
        return text_ + "cache: " + cacheStats_->describe() + "\n";
    }

    std::string out;
    if (format_ == RunFormat::kCsv) {
        for (const Emitted &t : tables_) {
            if (!out.empty())
                out += "\n";
            if (!t.title.empty())
                out += "# " + t.title + "\n";
            for (size_t c = 0; c < t.headers.size(); ++c)
                out += (c ? "," : "") + csvCell(t.headers[c]);
            out += "\n";
            for (const auto &row : t.rows) {
                for (size_t c = 0; c < row.size(); ++c)
                    out += (c ? "," : "") + csvCell(row[c]);
                out += "\n";
            }
        }
        if (cacheStats_)
            out += "# cache: " + cacheStats_->describe() + "\n";
        return out;
    }

    out = "{\n";
    if (cacheStats_) {
        const CacheStats &s = *cacheStats_;
        out += "  \"cache\": {\"memory_hits\": " +
               std::to_string(s.memoryHits) +
               ", \"disk_hits\": " + std::to_string(s.diskHits) +
               ", \"misses\": " + std::to_string(s.misses) +
               ", \"stored\": " + std::to_string(s.stored) +
               ", \"corrupt\": " + std::to_string(s.corrupt) + "},\n";
    }
    out += "  \"tables\": [\n";
    for (size_t i = 0; i < tables_.size(); ++i) {
        const Emitted &t = tables_[i];
        out += "    {\n      \"title\": " + jsonString(t.title) +
               ",\n      \"headers\": [";
        for (size_t c = 0; c < t.headers.size(); ++c)
            out += (c ? ", " : "") + jsonString(t.headers[c]);
        out += "],\n      \"rows\": [\n";
        for (size_t r = 0; r < t.rows.size(); ++r) {
            out += "        [";
            for (size_t c = 0; c < t.rows[r].size(); ++c)
                out += (c ? ", " : "") + jsonString(t.rows[r][c]);
            out += r + 1 < t.rows.size() ? "],\n" : "]\n";
        }
        out += i + 1 < tables_.size() ? "      ]\n    },\n"
                                      : "      ]\n    }\n";
    }
    out += "  ]\n}\n";
    return out;
}

// --- Figure registry ------------------------------------------------

const std::vector<FigureDef> &
figureList()
{
    static const std::vector<FigureDef> figures = detail::builtinFigures();
    return figures;
}

// --- CLI ------------------------------------------------------------

namespace
{

const char *const kUsage =
    "tdc_run - unified driver for every figure and protection scenario\n"
    "\n"
    "usage:\n"
    "  tdc_run --figure <key> [...]          run registered figure(s)\n"
    "  tdc_run --scheme <spec> [...] --fault <spec> [...]\n"
    "          [--events N] [--seed N]       custom injection grid\n"
    "  tdc_run --machine fat|lean --protection <spec> [...]\n"
    "          [--workload <name> ...] [--cycles N] [--seed N]\n"
    "                                        custom IPC-loss grid\n"
    "  tdc_run --serve <request-spec> [--scheme 2d:...] [--fault <spec>]\n"
    "          [--shards N] [--banks N] [--ports N] [--steal-window N]\n"
    "          [--scrub-interval N] [--fault-interval N]\n"
    "          [--record-trace <path>] [--seed N]\n"
    "                                        concurrent cache service\n"
    "  tdc_run --optimize <pattern> [...] [--fault <spec> ...]\n"
    "          [--trials N] [--objective storage|area|latency|power]\n"
    "                                        design-space Pareto search\n"
    "  tdc_run --lifetime [--scheme <spec> ...] [--fit-mix <spec> ...]\n"
    "          [--scrub-interval H ...] [--spares N ...] [--mission H]\n"
    "          [--trials N] [--seed N]       custom MTTF/FIT grid\n"
    "  tdc_run --list-figures | --list-schemes | --list-faults\n"
    "  tdc_run --cpu                         report CPU features and the\n"
    "                                        selected SIMD codec backend\n"
    "\n"
    "options:\n"
    "  --format table|csv|json   output format (default: table)\n"
    "  --threads N               worker-pool size (default: TDC_THREADS)\n"
    "  --events N                Monte-Carlo events per cell, accepts\n"
    "                            scientific notation (default: 100)\n"
    "  --trials N                alias for --events (autotuner axis)\n"
    "  --cycles N                simulated cycles per IPC run\n"
    "                            (default: 150000)\n"
    "  --seed N                  base campaign seed (default: 12345)\n"
    "  --cache-dir <path>        enable the on-disk result cache at\n"
    "                            <path> (default: $TDC_CACHE_DIR)\n"
    "  --cache-stats             append this run's result-cache\n"
    "                            hit/miss/store counters to the output\n"
    "\n"
    "optimize options:\n"
    "  --optimize <pattern>      scheme-spec pattern; brace groups\n"
    "                            {a,b,c}, {lo..hi}, {lo..hi..+K},\n"
    "                            {lo..hi..xK} expand to a design grid,\n"
    "                            e.g. \"2d:edc{8,16,32}/i{1..8..x2}+vp32\"\n"
    "  --objective <axis>        overhead axis to minimize against\n"
    "                            coverage: storage (default), area,\n"
    "                            latency, power\n"
    "\n"
    "serve options:\n"
    "  --shards N                concurrent service shards (default: 4)\n"
    "  --banks N                 cache banks per shard (default: 4)\n"
    "  --ports N                 port slots per cycle (default: 1)\n"
    "  --steal-window N          RBW port-steal window, at most 4096;\n"
    "                            0 disables (default: 8)\n"
    "  --scrub-interval N        ticks between background scrub steps,\n"
    "                            0 disables (default: 0)\n"
    "  --fault-interval N        ticks between injected fault events,\n"
    "                            0 disables (default: 0)\n"
    "  --record-trace <path>     save the served stream as a replayable\n"
    "                            binary trace\n"
    "\n"
    "lifetime options:\n"
    "  --fit-mix <spec>          FIT-rate mix: jaguar, transient,\n"
    "                            permanent, single, optionally scaled\n"
    "                            (\"jaguar*10000\"); repeatable\n"
    "                            (default: jaguar*10000)\n"
    "  --scrub-interval H        hours between scrubs, 0 scrubs after\n"
    "                            every event; repeatable (default: 168)\n"
    "  --spares N                spare-row repair budget; repeatable\n"
    "                            (default: 0)\n"
    "  --mission H               mission length in hours\n"
    "                            (default: 43800, five years)\n"
    "\n"
    "scheme specs (see --list-schemes):   conv:secded/i4,\n"
    "  2d:edc8/i4+vp32, wt:edc8/i4, prod:256x256, dram:chipkill/x4,\n"
    "  dram:iecc+chipkill/x8, ...\n"
    "fault specs (see --list-faults):     single, 32x32, 16x16@0.5,\n"
    "  row:32, col:8, fullrow, fullcol, chip:any, hammer:4@0.5,\n"
    "  senseamp:8\n"
    "request specs (--serve):             uniform/n1e6/w30,\n"
    "  zipf90/n1e5, burst128/n1e5/g512, trace:<path>\n";

struct CliOptions
{
    RunFormat format = RunFormat::kTable;
    long threads = -1;
    std::vector<std::string> figures;
    std::vector<std::string> schemes;
    std::vector<std::string> faults;
    std::vector<std::string> protections;
    std::vector<std::string> workloads;
    std::vector<std::string> optimizePatterns;
    OptimizeObjective objective = OptimizeObjective::kStorage;
    std::string cacheDir;
    bool cacheStats = false;
    // IPC-grid settings stay unset unless given, so one passed
    // without --protection is a usage error instead of being ignored.
    std::optional<std::string> machine;
    double events = 100.0;
    std::optional<double> cycles;
    uint64_t seed = 12345;
    bool serve = false;
    std::string serveSpec;
    std::string recordTrace;
    size_t shards = 4;
    size_t banks = 4;
    unsigned ports = 1;
    unsigned stealWindow = 8;
    // Raw --scrub-interval values; the meaning is mode-dependent
    // (ticks under --serve, hours under --lifetime), so parsing is
    // deferred to dispatch.
    std::vector<std::string> scrubIntervals;
    uint64_t faultInterval = 0;
    bool lifetime = false;
    std::vector<std::string> fitMixes;
    std::vector<std::string> spares;
    double missionHours = 5.0 * 8760.0;
    bool listFigures = false;
    bool listSchemes = false;
    bool listFaults = false;
    bool cpu = false;
    bool help = false;
    // Every flag given, in order, for the check that some selected
    // mode reads it.
    std::vector<std::string> given;
};

[[noreturn]] void
usageError(const std::string &what)
{
    throw std::invalid_argument(what);
}

/** Parse a positive count that may use scientific notation ("1e5"). */
double
parseCount(const std::string &flag, const std::string &value, double max)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() || v < 1.0 ||
        v > max)
        usageError(flag + " expects a count in [1, " +
                   std::to_string(size_t(max)) + "], got \"" + value +
                   "\"");
    return v;
}

/**
 * Parse a plain integer in [0, @p max] (0 often means "disabled").
 * Digits only: strtoull alone would read "-1" as 2^64 - 1 and clamp
 * an overflowing value to 2^64 - 1.
 */
uint64_t
parseU64(const std::string &flag, const std::string &value,
         uint64_t max = UINT64_MAX)
{
    char *end = nullptr;
    errno = 0;
    const uint64_t v = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || value[0] < '0' || value[0] > '9' ||
        end != value.c_str() + value.size() || errno == ERANGE)
        usageError(flag + " expects an unsigned integer, got \"" + value +
                   "\"");
    if (v > max)
        usageError(flag + " expects at most " + std::to_string(max) +
                   ", got \"" + value + "\"");
    return v;
}

/** Parse a non-negative hour count (0 = scrub after every event). */
double
parseHours(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() ||
        !(v >= 0.0) || v > 1e9)
        usageError(flag + " expects hours in [0, 1e9], got \"" + value +
                   "\"");
    return v;
}

CliOptions
parseCli(const std::vector<std::string> &args)
{
    CliOptions opt;
    const auto value = [&](size_t &i) -> const std::string & {
        if (i + 1 >= args.size())
            usageError("flag " + args[i] + " expects a value");
        return args[++i];
    };
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        opt.given.push_back(arg);
        if (arg == "--figure") {
            opt.figures.push_back(value(i));
        } else if (arg == "--scheme") {
            opt.schemes.push_back(value(i));
        } else if (arg == "--fault") {
            opt.faults.push_back(value(i));
        } else if (arg == "--protection") {
            opt.protections.push_back(value(i));
        } else if (arg == "--workload") {
            opt.workloads.push_back(value(i));
        } else if (arg == "--machine") {
            // One IPC panel per run: a second --machine would silently
            // replace the first, unlike the repeatable grid flags.
            if (opt.machine)
                usageError("--machine given twice (\"" + *opt.machine +
                           "\", then \"" + value(i) +
                           "\"); run one machine per invocation");
            opt.machine = value(i);
            if (opt.machine != "fat" && opt.machine != "lean")
                usageError("--machine expects \"fat\" or \"lean\", got \"" +
                           *opt.machine + "\"");
        } else if (arg == "--format") {
            const std::string &fmt = value(i);
            if (fmt == "table")
                opt.format = RunFormat::kTable;
            else if (fmt == "csv")
                opt.format = RunFormat::kCsv;
            else if (fmt == "json")
                opt.format = RunFormat::kJson;
            else
                usageError("--format expects table|csv|json, got \"" +
                           fmt + "\"");
        } else if (arg == "--threads") {
            opt.threads = long(parseCount(arg, value(i), 256));
        } else if (arg == "--events" || arg == "--trials") {
            opt.events = parseCount(arg, value(i), 1e8);
        } else if (arg == "--optimize") {
            opt.optimizePatterns.push_back(value(i));
        } else if (arg == "--objective") {
            opt.objective = parseObjective(value(i));
        } else if (arg == "--cache-dir") {
            opt.cacheDir = value(i);
            if (opt.cacheDir.empty())
                usageError("--cache-dir expects a directory path");
        } else if (arg == "--cache-stats") {
            opt.cacheStats = true;
        } else if (arg == "--cycles") {
            opt.cycles = parseCount(arg, value(i), 1e9);
        } else if (arg == "--seed") {
            // Full-precision uint64 (0 is a legitimate seed); the
            // scientific-notation count parser would round through
            // double.
            opt.seed = parseU64(arg, value(i));
        } else if (arg == "--serve") {
            opt.serve = true;
            opt.serveSpec = value(i);
        } else if (arg == "--record-trace") {
            opt.recordTrace = value(i);
        } else if (arg == "--shards") {
            opt.shards = size_t(parseCount(arg, value(i), 4096));
        } else if (arg == "--banks") {
            opt.banks = size_t(parseCount(arg, value(i), 4096));
        } else if (arg == "--ports") {
            opt.ports = unsigned(parseCount(arg, value(i), 64));
        } else if (arg == "--steal-window") {
            opt.stealWindow = unsigned(parseU64(arg, value(i), 4096));
        } else if (arg == "--scrub-interval") {
            opt.scrubIntervals.push_back(value(i));
        } else if (arg == "--lifetime") {
            opt.lifetime = true;
        } else if (arg == "--fit-mix") {
            opt.fitMixes.push_back(value(i));
        } else if (arg == "--spares") {
            opt.spares.push_back(value(i));
        } else if (arg == "--mission") {
            opt.missionHours = parseCount(arg, value(i), 1e9);
        } else if (arg == "--fault-interval") {
            opt.faultInterval = parseU64(arg, value(i));
        } else if (arg == "--list-figures") {
            opt.listFigures = true;
        } else if (arg == "--list-schemes") {
            opt.listSchemes = true;
        } else if (arg == "--list-faults") {
            opt.listFaults = true;
        } else if (arg == "--cpu") {
            opt.cpu = true;
        } else if (arg == "--help" || arg == "-h") {
            opt.help = true;
        } else {
            usageError("unknown flag \"" + arg + "\" (see --help)");
        }
    }
    return opt;
}

/**
 * A usage error for the first flag in @p opt that no selected mode
 * reads, or "" if there is none: a serve-only flag without --serve,
 * anything but --format with --cpu, and --events/--trials, --seed,
 * --scrub-interval, --objective or --mission when a mode is selected
 * but none of the selected ones reads them (with no mode at all, the
 * usage text is the error). The dispatch checks refuse the rest:
 * --fit-mix, --spares, the IPC flags, and other modes under --serve.
 */
std::string
unreadFlagError(const CliOptions &opt)
{
    const bool grid = !opt.schemes.empty() && !opt.lifetime && !opt.serve;
    const bool optimize = !opt.optimizePatterns.empty();
    const bool ipc = !opt.protections.empty();
    std::string modes;
    const auto mode = [&](bool on, const char *flag) {
        if (on)
            modes += std::string(modes.empty() ? "" : ", ") + flag;
    };
    if (opt.cpu) {
        mode(true, "--cpu");
    } else {
        mode(!opt.figures.empty(), "--figure");
        mode(grid, "--scheme");
        mode(opt.lifetime, "--lifetime");
        mode(optimize, "--optimize");
        mode(ipc, "--protection");
        mode(opt.serve, "--serve");
    }
    for (const std::string &flag : opt.given) {
        bool read;
        if (opt.cpu) {
            read = flag == "--cpu" || flag == "--format";
        } else if (flag == "--shards" || flag == "--banks" ||
                   flag == "--ports" || flag == "--steal-window" ||
                   flag == "--fault-interval" || flag == "--record-trace") {
            if (!opt.serve)
                return flag + " requires --serve";
            continue;
        } else if (flag == "--events" || flag == "--trials") {
            read = grid || opt.lifetime || optimize;
        } else if (flag == "--seed") {
            read = grid || opt.lifetime || optimize || ipc || opt.serve;
        } else if (flag == "--scrub-interval") {
            read = opt.serve || opt.lifetime;
        } else if (flag == "--objective") {
            read = optimize;
        } else if (flag == "--mission") {
            read = opt.lifetime;
        } else {
            continue;
        }
        if (!read && !modes.empty())
            return "\"" + flag + "\" is not read by " + modes;
    }
    return "";
}

std::string
listSchemesText()
{
    std::string out = "Registered scheme families:\n";
    for (const SchemeFamily &family : schemeFamilies()) {
        out += "\n  " + family.grammar + "\n      " + family.description +
               "\n      examples:";
        for (const std::string &example : family.examples)
            out += " " + example;
        out += "\n";
    }
    out += "\ncodes: ";
    for (size_t i = 0; i < std::size(kAllCodeKinds); ++i)
        out += (i ? ", " : "") + codeKindName(kAllCodeKinds[i]);
    out += "\n";
    return out;
}

std::string
listFaultsText()
{
    return "Fault-model specs (--fault):\n"
           "  single          one-cell upset at a random position\n"
           "  <W>x<H>         solid WxH cluster, e.g. 32x32\n"
           "  <W>x<H>@<D>     cluster with per-cell flip probability D\n"
           "  row:<W>         W-bit burst along one row\n"
           "  col:<H>         H-bit burst along one column\n"
           "  fullrow         an entire physical row fails\n"
           "  fullcol         an entire physical column fails\n"
           "  chip:<I>        chip I fails (whole symbol column group;\n"
           "                  chip:any draws a random chip)\n"
           "  hammer:<W>[@D]  row-hammer band of W victim rows, per-cell\n"
           "                  flip probability D (default solid)\n"
           "  senseamp:<H>    sense-amp failure: 2 adjacent columns\n"
           "                  over H rows\n";
}

std::string
listFiguresText()
{
    std::string out = "Registered figures (--figure):\n";
    for (const FigureDef &figure : figureList())
        out += "  " + figure.key +
               std::string(figure.key.size() < 14
                               ? 14 - figure.key.size()
                               : 1,
                           ' ') +
               figure.description + "\n";
    return out;
}

} // namespace

int
tdcRun(const std::vector<std::string> &args, std::string &out,
       std::string &err)
{
    CliOptions opt;
    try {
        opt = parseCli(args);
    } catch (const std::invalid_argument &e) {
        err += std::string("tdc_run: ") + e.what() + "\n";
        return 2;
    }

    if (opt.help) {
        out += kUsage;
        return 0;
    }
    if (opt.listFigures || opt.listSchemes || opt.listFaults) {
        if (opt.listFigures)
            out += listFiguresText();
        if (opt.listSchemes)
            out += listSchemesText();
        if (opt.listFaults)
            out += listFaultsText();
        return 0;
    }
    if (const std::string unread = unreadFlagError(opt); !unread.empty()) {
        err += "tdc_run: " + unread + "\n";
        return 2;
    }
    if (opt.cpu) {
        // Machine report: probed ISA features plus the codec backend
        // the dispatch layer settled on (honors TDC_SIMD). Goes
        // through RunContext so --format csv/json work as everywhere
        // else.
        RunContext ctx(opt.format);
        const CpuFeatures &f = cpuFeatures();
        Table features({"feature", "present"});
        features.addRow({"bmi2", f.bmi2 ? "yes" : "no"});
        features.addRow({"avx2", f.avx2 ? "yes" : "no"});
        features.addRow({"gfni", f.gfni ? "yes" : "no"});
        features.addRow({"pclmulqdq", f.pclmul ? "yes" : "no"});
        features.addRow({"vpclmulqdq", f.vpclmul ? "yes" : "no"});
        ctx.table(features, "cpu features");
        const std::optional<SimdBackend> requested = requestedSimdBackend();
        Table backend({"dispatch", "backend"});
        backend.addRow({"best supported", simdBackendName(bestSimdBackend())});
        backend.addRow({"TDC_SIMD request",
                        requested ? simdBackendName(*requested) : "(auto)"});
        backend.addRow({"active", simdBackendName(activeSimdBackend())});
        ctx.table(backend, "simd codec backend");
        out += ctx.str();
        return 0;
    }

    if (opt.figures.empty() && opt.schemes.empty() &&
        opt.protections.empty() && opt.optimizePatterns.empty() &&
        !opt.serve && !opt.lifetime) {
        err += kUsage;
        return 2;
    }

    if (opt.threads > 0)
        setParallelThreads(unsigned(opt.threads));
    if (!opt.cacheDir.empty())
        resultCache().setDirectory(opt.cacheDir);
    if (opt.cacheStats) {
        // Per-run semantics: the counters describe this invocation,
        // not the process (tests drive tdcRun in-process repeatedly).
        resultCache().resetStats();
    }

    RunContext ctx(opt.format);
    if (opt.serve) {
        try {
            if (!opt.figures.empty() || !opt.protections.empty() ||
                opt.lifetime || !opt.optimizePatterns.empty() ||
                opt.machine || !opt.workloads.empty() || opt.cycles)
                usageError("--serve is exclusive with --figure, "
                           "--protection, --lifetime, --optimize, "
                           "--machine, --workload and --cycles");
            if (opt.schemes.size() > 1)
                usageError("--serve accepts at most one --scheme");
            if (opt.faults.size() > 1)
                usageError("--serve accepts at most one --fault");
            if (opt.scrubIntervals.size() > 1)
                usageError("--serve accepts at most one --scrub-interval");

            ServiceConfig cfg;
            cfg.bank = parseTwoDimConfig(
                opt.schemes.empty() ? "2d:edc8/i4+vp32"
                                    : opt.schemes.front());
            cfg.shards = opt.shards;
            cfg.banksPerShard = opt.banks;
            cfg.ports = opt.ports;
            cfg.stealWindow = opt.stealWindow;
            cfg.scrubInterval =
                opt.scrubIntervals.empty()
                    ? 0
                    : parseU64("--scrub-interval",
                               opt.scrubIntervals.front());
            cfg.faultInterval = opt.faultInterval;
            cfg.seed = opt.seed;
            if (!opt.faults.empty())
                cfg.fault = parseFaultModel(opt.faults.front());

            const RequestStreamSpec stream =
                parseRequestSpec(opt.serveSpec);
            const std::vector<ServiceRequest> requests =
                buildRequests(stream, cfg.totalWords(), opt.seed);
            if (!opt.recordTrace.empty())
                writeTrace(opt.recordTrace, requests);

            const CacheService service(cfg);
            const ServiceReport report = service.serve(requests);

            ctx.prosef("serve %s: %zu requests, %zu shards x %zu banks "
                       "(%s), %llu ticks, %.1f req/ktick\n\n",
                       stream.spec().c_str(), requests.size(),
                       cfg.shards, cfg.banksPerShard,
                       cfg.bank.describe().c_str(),
                       (unsigned long long)report.ticks,
                       report.throughputPerKTick());
            ctx.table(serviceLatencyTable(report),
                      "service latency: " + stream.spec());
            ctx.table(serviceReliabilityTable(report),
                      "service reliability: " + stream.spec());
        } catch (const std::invalid_argument &e) {
            err += std::string("tdc_run: ") + e.what() + "\n";
            return 2;
        } catch (const std::exception &e) {
            err += std::string("tdc_run: ") + e.what() + "\n";
            return 1;
        }
        if (opt.cacheStats)
            ctx.cacheStats(resultCache().stats());
        out += ctx.str();
        return 0;
    }
    try {
        for (const std::string &key : opt.figures) {
            bool found = false;
            for (const FigureDef &figure : figureList()) {
                if (figure.key == key) {
                    figure.run(ctx);
                    found = true;
                    break;
                }
            }
            if (!found)
                usageError("unknown figure \"" + key +
                           "\" (see --list-figures)");
        }

        if (opt.lifetime) {
            if (!opt.faults.empty())
                usageError("--lifetime draws fault classes from "
                           "--fit-mix, not --fault");
            std::vector<std::string> schemes = opt.schemes;
            if (schemes.empty())
                schemes = {"conv:secded/i4/r64", "wt:edc8/i4/r64",
                           "2d:edc8/i4+vp32/r64", "prod:64x64"};
            std::vector<std::string> mixes = opt.fitMixes;
            if (mixes.empty())
                mixes.push_back("jaguar*10000");
            std::vector<double> scrubs;
            for (const std::string &s : opt.scrubIntervals)
                scrubs.push_back(parseHours("--scrub-interval", s));
            if (scrubs.empty())
                scrubs.push_back(24.0 * 7);
            std::vector<int> spares;
            for (const std::string &s : opt.spares) {
                spares.push_back(int(parseU64("--spares", s, 4096)));
            }
            if (spares.empty())
                spares.push_back(0);
            ctx.table(customLifetimeCampaign(schemes, mixes, scrubs,
                                             spares, opt.missionHours,
                                             int(opt.events), opt.seed));
        } else if (!opt.fitMixes.empty() || !opt.spares.empty()) {
            usageError("--fit-mix and --spares require --lifetime");
        } else if (!opt.schemes.empty()) {
            std::vector<std::string> faults = opt.faults;
            if (faults.empty())
                faults.push_back("32x32");
            ctx.table(customInjectionCampaign(opt.schemes, faults,
                                              int(opt.events), opt.seed));
        } else if (!opt.faults.empty() && opt.optimizePatterns.empty()) {
            usageError("--fault requires at least one --scheme or "
                       "--optimize");
        }

        if (!opt.optimizePatterns.empty()) {
            OptimizeRequest req;
            req.patterns = opt.optimizePatterns;
            req.faults = opt.faults;
            req.trials = int(opt.events);
            req.seed = opt.seed;
            req.objective = opt.objective;
            runOptimize(req, ctx);
        }

        if (!opt.protections.empty()) {
            const CmpConfig machine = opt.machine == "lean"
                                          ? CmpConfig::lean()
                                          : CmpConfig::fat();
            IpcLossCampaignSpec spec =
                IpcLossCampaignSpec::fromProtectionSpecs(
                    machine, "IPC loss: " + machine.name + " CMP",
                    opt.protections, opt.workloads);
            if (opt.cycles)
                spec.cycles = uint64_t(*opt.cycles);
            spec.seed = opt.seed;
            ctx.table(runIpcLossCampaign(spec));
        } else if (!opt.workloads.empty()) {
            usageError("--workload requires at least one --protection");
        } else if (opt.machine) {
            usageError("--machine requires at least one --protection");
        } else if (opt.cycles) {
            usageError("--cycles requires at least one --protection");
        }
    } catch (const std::invalid_argument &e) {
        err += std::string("tdc_run: ") + e.what() + "\n";
        return 2;
    }

    if (opt.cacheStats)
        ctx.cacheStats(resultCache().stats());
    out += ctx.str();
    return 0;
}

int
tdcRunMain(const std::vector<std::string> &args)
{
    std::string out, err;
    const int code = tdcRun(args, out, err);
    if (!out.empty())
        std::fputs(out.c_str(), stdout);
    if (!err.empty())
        std::fputs(err.c_str(), stderr);
    return code;
}

} // namespace tdc
