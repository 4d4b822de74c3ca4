/**
 * @file
 * The tdc_run driver contract:
 *  - "--figure fig1/fig2/fig7" emits the very tables the
 *    CampaignGoldenPins suite pins (driver output == campaign-builder
 *    output, so the CLI can never drift from the pinned figures);
 *  - a CLI-launched custom scheme x fault grid is bit-identical at
 *    TDC_THREADS=1 and 8;
 *  - csv/json formats carry the same cells as the table format;
 *  - fault footprints larger than a scheme's device clamp to it;
 *  - usage errors (unknown flags/figures, malformed specs) fail with
 *    exit code 2 and a quoted offending token, never a table.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "common/cpu_features.hh"
#include "common/parallel.hh"
#include "driver/tdc_run.hh"
#include "scheme/figure_campaigns.hh"

namespace tdc
{
namespace
{

struct ThreadGuard
{
    ~ThreadGuard() { setParallelThreads(0); }
};

/** Run the driver, asserting success, and return its stdout. */
std::string
runOk(const std::vector<std::string> &args)
{
    std::string out, err;
    const int code = tdcRun(args, out, err);
    EXPECT_EQ(code, 0) << err;
    EXPECT_TRUE(err.empty()) << err;
    return out;
}

TEST(TdcRun, Figure1MatchesCampaignBuilders)
{
    const std::string out = runOk({"--figure", "fig1"});
    EXPECT_NE(out.find(figure1StorageCampaign().render()),
              std::string::npos);
    EXPECT_NE(out.find(figure1EnergyCampaign().render()),
              std::string::npos);
}

TEST(TdcRun, Figure2MatchesCampaignBuilders)
{
    const std::string out = runOk({"--figure", "fig2"});
    EXPECT_NE(
        out.find(figure2EnergyCampaign(
                     "--- Figure 2(b): 64kB cache, (72,64) SECDED words "
                     "---",
                     64 * 1024, 64, 1)
                     .render()),
        std::string::npos);
    EXPECT_NE(
        out.find(figure2EnergyCampaign(
                     "--- Figure 2(c): 4MB cache, (266,256) SECDED words, "
                     "8 banks ---",
                     4 * 1024 * 1024, 256, 8)
                     .render()),
        std::string::npos);
}

TEST(TdcRun, Figure7MatchesCampaignBuilders)
{
    const std::string out = runOk({"--figure", "fig7"});
    EXPECT_NE(
        out.find(figure7Campaign(
                     "--- Figure 7(a): 64kB L1 data cache (normalized to "
                     "SECDED+Intv2 = 100%) ---",
                     CacheGeometry::l1(),
                     {"2d:edc8/i4+vp32", "conv:dected/i16",
                      "conv:qecped/i8", "conv:oecned/i4", "wt:edc8/i4"})
                     .render()),
        std::string::npos);
    EXPECT_NE(
        out.find(figure7Campaign(
                     "--- Figure 7(b): 4MB L2 cache (normalized to "
                     "SECDED+Intv2 = 100%) ---",
                     CacheGeometry::l2(),
                     {"2d:edc16/i2+vp32/w256", "conv:dected/i16",
                      "conv:qecped/i8", "conv:oecned/i4"})
                     .render()),
        std::string::npos);
}

TEST(TdcRun, SeedKeepsFullUint64Precision)
{
    ThreadGuard guard;
    setParallelThreads(1);
    // 2^53+1 is not representable as a double: a seed routed through
    // strtod would collapse onto 2^53. The campaign title embeds the
    // parsed seed verbatim, so it pins the full-precision path.
    std::string out53p1, err;
    ASSERT_EQ(tdcRun({"--scheme", "conv:secded/i4/r16", "--fault", "4x4",
                      "--events", "3", "--seed", "9007199254740993"},
                     out53p1, err),
              0);
    EXPECT_NE(out53p1.find("seed 9007199254740993"), std::string::npos);
    // Seed 0 is legitimate.
    std::string out0;
    EXPECT_EQ(tdcRun({"--scheme", "conv:secded/i4/r16", "--fault", "4x4",
                      "--events", "1", "--seed", "0"},
                     out0, err),
              0);
}

TEST(TdcRun, CustomGridIdenticalAtOneAndEightThreads)
{
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--scheme", "2d:edc8/i4+vp32", "--scheme", "conv:secded/i4/r64",
        "--fault",  "8x8",             "--fault",  "row:16",
        "--events", "4",               "--seed",   "99",
    };
    setParallelThreads(1);
    const std::string serial = runOk(args);
    setParallelThreads(8);
    EXPECT_EQ(runOk(args), serial);
    EXPECT_NE(serial.find("2D(EDC8+Intv4,EDC32)"), std::string::npos);
    // --threads is an alternative spelling of the same pool override.
    setParallelThreads(1);
    std::vector<std::string> threaded = args;
    threaded.push_back("--threads");
    threaded.push_back("8");
    EXPECT_EQ(runOk(threaded), serial);
}

TEST(TdcRun, OversizedFootprintsClampToTheDevice)
{
    // A 256-row cluster and a 65-cell column burst on 64-row devices
    // fail one whole column instead of indexing past the array.
    EXPECT_EQ(runOk({"--scheme", "prod:64x64", "--scheme",
                     "dram:chipkill/x4", "--fault", "1x256", "--fault",
                     "col:65", "--events", "2"}),
              "Injection campaign: 2 events/cell, seed 12345\n"
              "\n"
              "Fault       HVProd(64x64)      Chipkill(x4,RS15/12)\n"
              "---------------------------------------------------\n"
              "1x256       detected only 0/2  corrected 2/2       \n"
              "1x65 burst  detected only 0/2  corrected 2/2       \n");
}

TEST(TdcRun, CustomIpcGridRunsWorkloadSubset)
{
    ThreadGuard guard;
    setParallelThreads(2);
    const std::string out =
        runOk({"--machine", "lean", "--protection", "l1+steal",
               "--protection", "wt", "--workload", "OLTP", "--cycles",
               "20000"});
    EXPECT_NE(out.find("IPC loss: lean CMP"), std::string::npos);
    EXPECT_NE(out.find("OLTP"), std::string::npos);
    EXPECT_NE(out.find("L1+steal"), std::string::npos);
    EXPECT_NE(out.find("WT-L1 + 2D-L2"), std::string::npos);
    // Only the requested workload appears.
    EXPECT_EQ(out.find("Ocean"), std::string::npos);
}

TEST(TdcRun, CsvAndJsonCarryTheTableCells)
{
    const std::string csv =
        runOk({"--figure", "fig1", "--format", "csv"});
    EXPECT_NE(csv.find("Code,HD,64b word,256b word"), std::string::npos);
    EXPECT_NE(csv.find("OECNED,18,89.1%,28.5%"), std::string::npos);

    const std::string json =
        runOk({"--figure", "fig1", "--format", "json"});
    EXPECT_NE(json.find("\"tables\""), std::string::npos);
    EXPECT_NE(json.find("\"headers\": [\"Code\", \"HD\", \"64b word\", "
                        "\"256b word\"]"),
              std::string::npos);
    EXPECT_NE(json.find("\"OECNED\", \"18\", \"89.1%\", \"28.5%\""),
              std::string::npos);
}

TEST(TdcRun, ListFlagsEnumerateRegistries)
{
    const std::string figures = runOk({"--list-figures"});
    for (const FigureDef &figure : figureList())
        EXPECT_NE(figures.find(figure.key), std::string::npos);

    const std::string schemes = runOk({"--list-schemes"});
    EXPECT_NE(schemes.find("conv:"), std::string::npos);
    EXPECT_NE(schemes.find("2d:"), std::string::npos);
    EXPECT_NE(schemes.find("prod:"), std::string::npos);
    EXPECT_NE(schemes.find("SECDED"), std::string::npos);

    const std::string faults = runOk({"--list-faults"});
    EXPECT_NE(faults.find("fullrow"), std::string::npos);
}

TEST(TdcRun, UsageErrorsExitTwoWithQuotedToken)
{
    const auto expectUsageError = [](const std::vector<std::string> &args,
                                     const std::string &needle) {
        std::string out, err;
        EXPECT_EQ(tdcRun(args, out, err), 2);
        EXPECT_NE(err.find(needle), std::string::npos) << err;
        EXPECT_EQ(out.find("---"), std::string::npos);
    };
    expectUsageError({"--bogus"}, "\"--bogus\"");
    expectUsageError({"--figure", "fig99"}, "\"fig99\"");
    expectUsageError({"--scheme", "conv:edc9/i4"}, "\"edc9\"");
    expectUsageError({"--scheme", "conv:secded/i4", "--fault", "blob"},
                     "\"blob\"");
    expectUsageError({"--fault", "8x8"}, "--scheme");
    expectUsageError({"--workload", "OLTP"}, "--protection");
    expectUsageError({"--figure", "table1", "--cycles", "5000"},
                     "--cycles");
    expectUsageError({"--figure", "table1", "--machine", "lean"},
                     "--machine");
    expectUsageError({"--machine", "huge"}, "\"huge\"");
    expectUsageError({"--machine", "fat", "--machine", "lean", "--protection",
                      "l1", "--cycles", "2000"},
                     "--machine given twice");
    expectUsageError({"--format", "xml"}, "\"xml\"");
    expectUsageError({"--events", "0", "--figure", "fig1"}, "--events");
    expectUsageError({"--seed", "12x", "--figure", "fig1"}, "\"12x\"");
    // strtoull reads a leading '-' as a wrap to 2^64 - n; a negative
    // value must be refused, not run as a huge seed or interval.
    expectUsageError({"--seed", "-1", "--figure", "fig1"}, "\"-1\"");
    expectUsageError({"--serve", "uniform/n100", "--fault-interval", "-3"},
                     "\"-3\"");
    // The window sizes every shard's port ring, so it is bounded; it
    // used to be truncated to unsigned (2^32 served as 0, stealing off).
    expectUsageError({"--serve", "uniform/n100", "--steal-window",
                      "4294967296"},
                     "\"4294967296\"");
    // No --serve here: if accepted, these would size a ~4G-slot ring.
    expectUsageError({"--steal-window", "-1"}, "\"-1\"");
    expectUsageError({"--steal-window", "4294967295"}, "\"4294967295\"");
    // Flags only --serve reads are refused without it, not ignored.
    for (const char *flag : {"--shards", "--banks", "--ports",
                             "--steal-window", "--fault-interval"})
        expectUsageError({"--figure", "table1", flag, "4"},
                         std::string(flag) + " requires --serve");
    const std::filesystem::path trace =
        std::filesystem::temp_directory_path() / "tdc_run_unserved.trc";
    std::filesystem::remove(trace);
    expectUsageError({"--figure", "table1", "--record-trace",
                      trace.string()},
                     "--record-trace requires --serve");
    EXPECT_FALSE(std::filesystem::exists(trace));
    // Flags no selected mode reads are refused too: the figures fix
    // their own trials, seeds and scrub settings, and --cpu reads only
    // --format.
    expectUsageError({"--figure", "table1", "--scrub-interval", "5"},
                     "\"--scrub-interval\" is not read by --figure");
    expectUsageError({"--figure", "table1", "--objective", "area"},
                     "\"--objective\" is not read by --figure");
    expectUsageError({"--figure", "table1", "--mission", "100"},
                     "\"--mission\" is not read by --figure");
    expectUsageError({"--figure", "table1", "--events", "7", "--seed", "3"},
                     "\"--events\" is not read by --figure");
    expectUsageError({"--figure", "table1", "--seed", "3"},
                     "\"--seed\" is not read by --figure");
    expectUsageError({"--figure", "table1", "--trials", "7"},
                     "\"--trials\" is not read by --figure");
    expectUsageError({"--cpu", "--shards", "4"},
                     "\"--shards\" is not read by --cpu");
    expectUsageError({"--cpu", "--figure", "table1"},
                     "\"--figure\" is not read by --cpu");
    expectUsageError({"--protection", "l1", "--cycles", "2000", "--events",
                      "3"},
                     "\"--events\" is not read by --protection");
    expectUsageError({"--serve", "uniform/n1e3/w30", "--events", "3"},
                     "\"--events\" is not read by --serve");
    expectUsageError({"--optimize", "2d:edc8/i4+vp32", "--mission", "9"},
                     "\"--mission\" is not read by --optimize");
    // Modes still combine: the custom grid reads --events.
    EXPECT_NE(runOk({"--figure", "table1", "--scheme", "2d:edc8/i4+vp32",
                     "--fault", "single", "--events", "2"})
                  .find("2D"),
              std::string::npos);
    expectUsageError({"--protection", "l3"}, "\"l3\"");
    expectUsageError({"--protection", "l1", "--workload", "NoSuch"},
                     "\"NoSuch\"");
    expectUsageError({}, "usage");
}

TEST(TdcRun, ServeEmitsLatencyAndReliabilityTables)
{
    const std::string out = runOk({"--serve", "uniform/n4000/w30",
                                   "--scrub-interval", "17",
                                   "--fault-interval", "501"});
    EXPECT_NE(out.find("serve uniform/n4000/w30"), std::string::npos);
    EXPECT_NE(out.find("RBW stolen"), std::string::npos);
    EXPECT_NE(out.find("p999"), std::string::npos);
    EXPECT_NE(out.find("ScrubSteps"), std::string::npos);
    EXPECT_NE(out.find("all"), std::string::npos);
}

TEST(TdcRun, ServeIsThreadCountInvariant)
{
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--serve", "zipf90/n6000/w40", "--scrub-interval", "13",
        "--fault-interval", "301", "--format", "json"};
    std::vector<std::string> one = args, eight = args;
    one.insert(one.end(), {"--threads", "1"});
    eight.insert(eight.end(), {"--threads", "8"});
    EXPECT_EQ(runOk(one), runOk(eight));
}

TEST(TdcRun, ServeRecordsAReplayableTrace)
{
    const std::string path =
        testing::TempDir() + "tdc_run_serve_trace.bin";
    const std::string recorded =
        runOk({"--serve", "burst32/n3000/w50", "--record-trace", path,
               "--format", "csv"});
    const std::string replayed =
        runOk({"--serve", "trace:" + path, "--format", "csv"});
    // Identical data rows; only the spec named in the titles differs.
    const auto stripTitles = [](const std::string &text) {
        std::string kept;
        size_t start = 0;
        while (start < text.size()) {
            size_t end = text.find('\n', start);
            if (end == std::string::npos)
                end = text.size();
            if (text[start] != '#')
                kept += text.substr(start, end - start) + "\n";
            start = end + 1;
        }
        return kept;
    };
    EXPECT_EQ(stripTitles(recorded), stripTitles(replayed));
    std::remove(path.c_str());
}

TEST(TdcRun, ServeUsageErrorsExitTwoWithQuotedToken)
{
    const auto expectUsageError = [](const std::vector<std::string> &args,
                                     const std::string &needle) {
        std::string out, err;
        EXPECT_EQ(tdcRun(args, out, err), 2);
        EXPECT_NE(err.find(needle), std::string::npos) << err;
        EXPECT_TRUE(out.empty()) << out;
    };
    expectUsageError({"--serve", "gauss/n100"}, "\"gauss\"");
    expectUsageError({"--serve", "uniform/n0"}, "\"n0\"");
    expectUsageError({"--serve", "uniform/q4"}, "\"q4\"");
    expectUsageError({"--serve", "trace:"}, "trace:");
    expectUsageError({"--serve", "uniform", "--scheme", "conv:secded/i4"},
                     "2d");
    expectUsageError({"--serve", "uniform", "--scheme", "2d:edc8/i0+vp32"},
                     "\"i0\"");
    expectUsageError({"--serve", "uniform", "--fault", "0x4"}, "\"0x4\"");
    expectUsageError({"--serve", "uniform", "--figure", "fig1"},
                     "--serve");
    expectUsageError({"--serve", "uniform", "--protection", "l1"},
                     "--serve");
    // Every other mode's flags are refused too, not dropped.
    expectUsageError({"--serve", "uniform/n1e3/w30", "--optimize",
                      "2d:edc{8,16}/i4+vp32"},
                     "--optimize");
    expectUsageError({"--serve", "uniform/n1e3/w30", "--machine", "fat"},
                     "--machine");
    expectUsageError({"--serve", "uniform/n1e3/w30", "--workload", "OLTP"},
                     "--workload");
    expectUsageError({"--serve", "uniform/n1e3/w30", "--cycles", "1000"},
                     "--cycles");
    expectUsageError({"--serve", "uniform/n1e3/w30", "--machine", "fat",
                      "--workload", "OLTP", "--cycles", "1000"},
                     "--serve is exclusive");
    expectUsageError({"--serve", "uniform", "--scheme", "2d:edc8/i4+vp32",
                      "--scheme", "2d:edc8/i2+vp32"},
                     "at most one");
    expectUsageError({"--serve", "uniform", "--shards", "0"}, "--shards");
    expectUsageError({"--serve", "uniform", "--scrub-interval", "x"},
                     "--scrub-interval");
}

TEST(TdcRun, ServeMissingTraceFileExitsOne)
{
    std::string out, err;
    EXPECT_EQ(tdcRun({"--serve", "trace:/no/such/trace.bin"}, out, err),
              1);
    EXPECT_NE(err.find("/no/such/trace.bin"), std::string::npos) << err;
}

TEST(TdcRun, CpuFlagReportsFeaturesAndBackendAndExitsZero)
{
    const std::string out = runOk({"--cpu"});
    EXPECT_NE(out.find("bmi2"), std::string::npos);
    EXPECT_NE(out.find("avx2"), std::string::npos);
    EXPECT_NE(out.find("best supported"), std::string::npos);
    EXPECT_NE(out.find("active"), std::string::npos);
    // The active row always names a valid backend.
    EXPECT_NE(out.find(simdBackendName(activeSimdBackend())),
              std::string::npos);

    // json carries the same report as structured tables.
    const std::string json = runOk({"--cpu", "--format", "json"});
    EXPECT_NE(json.find("\"cpu features\""), std::string::npos);
    EXPECT_NE(json.find("\"simd codec backend\""), std::string::npos);

    // The usage text advertises the flag; unknown flags still exit 2.
    EXPECT_NE(runOk({"--help"}).find("--cpu"), std::string::npos);
    std::string o, e;
    EXPECT_EQ(tdcRun({"--cpus"}, o, e), 2);
    EXPECT_NE(e.find("\"--cpus\""), std::string::npos);
}

TEST(TdcRun, CampaignOutputIsBackendInvariant)
{
    // The same injection grid must emit identical bytes on the scalar
    // tier and on the dispatched tier, at one worker thread and at
    // eight — the no-output-drift guarantee TDC_SIMD is allowed to
    // rely on.
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--scheme", "2d:edc8/i4+vp32", "--scheme", "conv:qecped/i2/r64",
        "--fault",  "8x8",             "--fault",  "col:6",
        "--events", "4",               "--seed",   "77",
    };
    std::string ref;
    {
        ScopedSimdBackend scalar(SimdBackend::kScalar);
        setParallelThreads(1);
        ref = runOk(args);
    }
    for (SimdBackend b : {SimdBackend::kBmi2, SimdBackend::kAvx2}) {
        if (b > bestSimdBackend())
            continue;
        ScopedSimdBackend backend(b);
        for (unsigned threads : {1u, 8u}) {
            setParallelThreads(threads);
            EXPECT_EQ(runOk(args), ref)
                << simdBackendName(b) << " threads=" << threads;
        }
    }
}

TEST(TdcRun, ServeOutputIsBackendInvariant)
{
    ThreadGuard guard;
    const std::vector<std::string> args = {
        "--serve", "zipf90/n5000/w40", "--scrub-interval", "13",
        "--fault-interval", "301", "--format", "json"};
    std::string ref;
    {
        ScopedSimdBackend scalar(SimdBackend::kScalar);
        setParallelThreads(1);
        ref = runOk(args);
    }
    for (SimdBackend b : {SimdBackend::kBmi2, SimdBackend::kAvx2}) {
        if (b > bestSimdBackend())
            continue;
        ScopedSimdBackend backend(b);
        for (unsigned threads : {1u, 8u}) {
            setParallelThreads(threads);
            EXPECT_EQ(runOk(args), ref)
                << simdBackendName(b) << " threads=" << threads;
        }
    }
}

} // namespace
} // namespace tdc
