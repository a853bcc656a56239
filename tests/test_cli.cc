/**
 * @file
 * bwsim CLI tests: registry completeness, --list, option parsing, and
 * parity between `bwsim <name>` and the legacy env-driven bench path.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli/cli.hh"
#include "sim/tick_profile.hh"

using namespace bwsim;

namespace
{

int
runCli(std::vector<const char *> args, std::string &out_s,
       std::string &err_s)
{
    args.insert(args.begin(), "bwsim");
    std::ostringstream out, err;
    int rc = cli::cliMain(static_cast<int>(args.size()), args.data(), out,
                          err);
    out_s = out.str();
    err_s = err.str();
    return rc;
}

} // namespace

TEST(Cli, RegistryCoversEveryLegacyBench)
{
    const auto &reg = cli::experimentRegistry();
    // 17 experiments: figs 1/3/4/5/7/8/9/10/11/12, tables I-III,
    // secs IV/VI/VII, and the ablation study.
    EXPECT_EQ(reg.size(), 17u);
    for (const auto &e : reg) {
        EXPECT_FALSE(e.name.empty());
        EXPECT_FALSE(e.legacy.empty());
        EXPECT_TRUE(bool(e.run)) << e.name;
        EXPECT_EQ(cli::findExperiment(e.name), &e);
    }
    EXPECT_EQ(cli::findExperiment("fig2"), nullptr);
}

TEST(Cli, ListNamesEveryRegisteredExperiment)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--list"}, out, err), 0);
    for (const auto &e : cli::experimentRegistry()) {
        EXPECT_NE(out.find(e.name), std::string::npos) << e.name;
        EXPECT_NE(out.find(e.legacy), std::string::npos) << e.legacy;
    }
    EXPECT_TRUE(err.empty());
}

TEST(Cli, UnknownExperimentExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({"nosuch"}, out, err), 0);
    EXPECT_NE(err.find("unknown experiment"), std::string::npos);
    // A bad name anywhere fails before any experiment runs.
    EXPECT_NE(runCli({"tab1", "nosuch"}, out, err), 0);
    EXPECT_EQ(out.find("Table I"), std::string::npos);
}

TEST(Cli, UnknownOptionExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({"--frobnicate", "tab1"}, out, err), 0);
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, NoExperimentExitsNonZero)
{
    std::string out, err;
    EXPECT_NE(runCli({}, out, err), 0);
    EXPECT_NE(err.find("usage"), std::string::npos);
}

TEST(Cli, HelpExitsZero)
{
    std::string out, err;
    EXPECT_EQ(runCli({"--help"}, out, err), 0);
    EXPECT_NE(out.find("usage"), std::string::npos);
}

TEST(Cli, StaticTablesRunWithoutSimulation)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1"}, out, err), 0);
    EXPECT_NE(out.find("Table I"), std::string::npos);
    ASSERT_EQ(runCli({"tab3"}, out, err), 0);
    EXPECT_NE(out.find("Table III"), std::string::npos);
    ASSERT_EQ(runCli({"sec7"}, out, err), 0);
    EXPECT_NE(out.find("area overhead"), std::string::npos);
}

TEST(Cli, FlagOutputMatchesLegacyEnvDrivenPath)
{
    // The legacy bench binaries call runExperiment() with env-derived
    // options; for a static experiment both paths must print the same
    // bytes.
    std::ostringstream legacy, err;
    ASSERT_EQ(cli::runExperiment("tab3", exp::ExperimentOptions{}, legacy,
                                 err),
              0);
    std::string out, err_s;
    ASSERT_EQ(runCli({"tab3"}, out, err_s), 0);
    EXPECT_EQ(out, legacy.str());
}

TEST(Cli, MultipleExperimentsSeparatedByBlankLine)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "tab3"}, out, err), 0);
    auto t1 = out.find("Table I");
    auto t3 = out.find("Table III");
    EXPECT_NE(t1, std::string::npos);
    EXPECT_NE(t3, std::string::npos);
    EXPECT_LT(t1, t3);
}

TEST(Cli, FormatCsvEmitsMachineReadableGrid)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab3", "--format=csv"}, out, err), 0);
    // Headings become comment lines; the grid itself is plain CSV.
    EXPECT_EQ(out.rfind("# === Table III", 0), 0u);
    EXPECT_NE(out.find("parameter,type,baseline,scaled(4x),"
                       "cost-effective\n"),
              std::string::npos);
    EXPECT_NE(out.find("DRAM scheduler queue,=,"), std::string::npos);
}

TEST(Cli, FormatTsvEmitsTabs)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "--format=tsv"}, out, err), 0);
    EXPECT_NE(out.find("parameter\tvalue\n"), std::string::npos);
}

TEST(Cli, FormatTextIsDefaultAndExplicit)
{
    std::string flagged, plain, err;
    ASSERT_EQ(runCli({"tab3", "--format=text"}, flagged, err), 0);
    ASSERT_EQ(runCli({"tab3"}, plain, err), 0);
    EXPECT_EQ(flagged, plain);
}

TEST(Cli, UnknownFormatRejected)
{
    std::string out, err;
    EXPECT_NE(runCli({"tab1", "--format=xml"}, out, err), 0);
    EXPECT_NE(err.find("--format"), std::string::npos);
}

TEST(Cli, FormatJsonEmitsOneObjectPerTableNoHeadings)
{
    std::string out, err;
    ASSERT_EQ(runCli({"tab1", "--format=json"}, out, err), 0);
    // No headings or notes, just the table object.
    EXPECT_EQ(out.rfind("{\"headers\":[\"parameter\",\"value\"]", 0), 0u);
    EXPECT_EQ(out.find("==="), std::string::npos);
    EXPECT_EQ(out.find('\n'), out.size() - 1); // single line

    // Several tables become JSON Lines (one object per line).
    std::string multi;
    ASSERT_EQ(runCli({"tab1", "tab3", "--format=json"}, multi, err), 0);
    std::size_t objects = 0;
    std::istringstream lines(multi);
    for (std::string line; std::getline(lines, line);)
        if (!line.empty()) {
            EXPECT_EQ(line.rfind("{\"headers\":", 0), 0u);
            ++objects;
        }
    EXPECT_EQ(objects, 2u);
}

TEST(Cli, DumpStatsOptionsValidated)
{
    std::string out, err;
    // --config only makes sense with --dump-stats.
    EXPECT_NE(runCli({"tab1", "--config=baseline"}, out, err), 0);
    EXPECT_NE(err.find("--config"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--dump-stats"}, out, err), 0);
    EXPECT_NE(err.find("--dump-stats"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--config=warp-drive"}, out, err),
              0);
    EXPECT_NE(err.find("unknown --config"), std::string::npos);
    EXPECT_NE(err.find("baseline"), std::string::npos); // lists presets

    // An overflowing fixed-<N> is an unknown preset, not an abort or
    // a silently wrapped latency.
    err.clear();
    EXPECT_NE(runCli({"--dump-stats",
                      "--config=fixed-99999999999999999999"},
                     out, err),
              0);
    EXPECT_NE(err.find("unknown --config"), std::string::npos);

    // Table- and fan-out-only flags are rejected, not ignored.
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--format=json"}, out, err), 0);
    EXPECT_NE(err.find("--format"), std::string::npos);
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--jobs=4"}, out, err), 0);
    EXPECT_NE(err.find("--jobs"), std::string::npos);
    err.clear();
    EXPECT_NE(runCli({"--dump-stats", "--backend=queue",
                      "--spool-dir=/tmp/x"},
                     out, err),
              0);
}

TEST(Cli, DumpStatsPrintsTheTree)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--config=fixed-200"},
                     out, err),
              0);
    EXPECT_NE(out.find("# stats: benchmark=bfs config=fixed-200"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_NE(out.find("gpu.core0.l1d.accesses"), std::string::npos);
    // fixed-latency mode models no network or partitions.
    EXPECT_EQ(out.find("gpu.icnt."), std::string::npos);
    EXPECT_EQ(out.find("gpu.part"), std::string::npos);
}

TEST(Cli, DumpStatsStillPrintsTheExecStatsEpilogue)
{
    // Regression: the --dump-stats path used to return before the
    // --exec-stats epilogue, silently eating the flag.
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--config=fixed-200", "--exec-stats"},
                     out, err),
              0);
    EXPECT_NE(out.find("gpu.core0.issued_insts"), std::string::npos);
    EXPECT_NE(err.find("bwsim: exec stats: sims="), std::string::npos);
    EXPECT_NE(err.find("bwsim: sim speed: scheduler="),
              std::string::npos);
    // Without --profile-ticks there must be no profiler lines.
    EXPECT_EQ(err.find("bwsim: tick profile:"), std::string::npos);
}

TEST(Cli, ProfileTicksAddsTheProfilerTreeAndEpilogue)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64",
                      "--profile-ticks", "--exec-stats"},
                     out, err),
              0);
    setTickProfileEnabled(false); // process-global; don't leak
    EXPECT_NE(out.find("gpu.tick_profile.core.ticks"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.tick_profile.dram.wall_nanos"),
              std::string::npos);
    EXPECT_NE(out.find("gpu.tick_profile.icnt.avg_ns_per_tick"),
              std::string::npos);
    EXPECT_NE(err.find("bwsim: tick profile: domain="),
              std::string::npos);

    // The profiler must be observe-only: the rest of the tree is
    // unchanged relative to an unprofiled run.
    std::string out2, err2;
    ASSERT_EQ(runCli({"--dump-stats", "--benches=bfs", "--shrink=64"},
                     out2, err2),
              0);
    EXPECT_EQ(out2.find("gpu.tick_profile"), std::string::npos);
    std::istringstream is(out);
    std::string line, filtered;
    while (std::getline(is, line)) {
        if (line.rfind("gpu.tick_profile", 0) != 0)
            filtered += line + "\n";
    }
    EXPECT_EQ(filtered, out2);
}

TEST(Cli, UsageMentionsTheTickProfileFlag)
{
    std::string out, err;
    EXPECT_EQ(runCli({"--help"}, out, err), 0);
    EXPECT_NE(out.find("--profile-ticks"), std::string::npos);
}

TEST(Cli, ShardOptionsValidated)
{
    std::string out, err;
    // --shards without a cache dir: the workers' results would be
    // unreachable.
    EXPECT_NE(runCli({"tab1", "--shards=2"}, out, err), 0);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--shards=0"}, out, err), 0);
    EXPECT_NE(err.find("--shards"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--shards=2", "--shard-id=2",
                      "--cache-dir=/tmp/x"},
                     out, err),
              0);
    EXPECT_NE(err.find("--shard-id"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--jobs=2", "--shards=2",
                      "--cache-dir=/tmp/x"},
                     out, err),
              0);
    EXPECT_NE(err.find("mutually exclusive"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--jobs=0"}, out, err), 0);
    EXPECT_NE(err.find("--jobs"), std::string::npos);
}

TEST(Cli, UsageMentionsTheExecutionFlags)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--help"}, out, err), 0);
    for (const char *flag : {"--cache-dir", "--jobs", "--shards",
                             "--shard-id", "--format", "--exec-stats"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

TEST(Cli, BackendOptionsValidated)
{
    std::string out, err;
    EXPECT_NE(runCli({"tab1", "--backend=carrier-pigeon"}, out, err), 0);
    EXPECT_NE(err.find("--backend"), std::string::npos);

    // queue without a spool: nowhere to put the jobs.
    err.clear();
    EXPECT_NE(runCli({"tab1", "--backend=queue"}, out, err), 0);
    EXPECT_NE(err.find("--spool-dir"), std::string::npos);

    // queue and the fork/shard modes are different scale-out paths.
    err.clear();
    EXPECT_NE(runCli({"tab1", "--backend=queue", "--spool-dir=/tmp/s",
                      "--jobs=2"},
                     out, err),
              0);
    EXPECT_NE(err.find("incompatible"), std::string::npos);

    // jobs backend without a fan-out count is meaningless.
    err.clear();
    EXPECT_NE(runCli({"tab1", "--backend=jobs"}, out, err), 0);
    EXPECT_NE(err.find("--jobs"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--backend=threads", "--jobs=2"}, out,
                     err),
              0);
    EXPECT_NE(err.find("contradicts"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"tab1", "--job-timeout=0"}, out, err), 0);
    EXPECT_NE(err.find("--job-timeout"), std::string::npos);
}

TEST(Cli, WorkerModeValidated)
{
    std::string out, err;
    EXPECT_NE(runCli({"--worker"}, out, err), 0);
    EXPECT_NE(err.find("--spool-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--worker", "--spool-dir=/tmp/s", "tab1"}, out,
                     err),
              0);
    EXPECT_NE(err.find("no experiment names"), std::string::npos);
}

TEST(Cli, CacheHousekeepingNeedsACacheDir)
{
    std::string out, err;
    EXPECT_NE(runCli({"--cache-stats"}, out, err), 0);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);

    err.clear();
    EXPECT_NE(runCli({"--cache-max-mb=1"}, out, err), 0);
    EXPECT_NE(err.find("--cache-dir"), std::string::npos);

    // A negative budget is a mistake, not a no-op.
    err.clear();
    EXPECT_NE(runCli({"--cache-max-mb=-5", "--cache-dir=/tmp/x"}, out,
                     err),
              0);
    EXPECT_NE(err.find("--cache-max-mb"), std::string::npos);
}

TEST(Cli, CacheStatsOnAnEmptyDirReportsZeroEntries)
{
    std::string dir = ::testing::TempDir() + "bwsim-cli-cache-stats";
    std::filesystem::remove_all(dir);
    std::string out, err;
    // Housekeeping-only invocation: no experiment names needed.
    ASSERT_EQ(runCli({"--cache-stats", ("--cache-dir=" + dir).c_str()},
                     out, err),
              0);
    EXPECT_NE(out.find("0 entries"), std::string::npos) << out;
}

TEST(Cli, TraceInfoRejectsAnOutOfRangeCtaTag)
{
    // Tag 2^31 - 1 once overflowed the launch shape to -2^31 CTAs
    // and replayed as an all-zero run; it must fail up front.
    const std::string path = ::testing::TempDir() + "bwsim-cli-bigtag.trace";
    std::ofstream(path) << "ld 0x1000 0\nst 0x2000 2147483647\n";
    std::string out, err;
    EXPECT_EQ(runCli({"trace", "info", path.c_str()}, out, err), 1);
    EXPECT_EQ(err, "bwsim: bwsim-cli-bigtag.trace:2: CTA tag 2147483647 "
                   "out of range (a trace launches at most 65535 CTAs)\n");
    EXPECT_TRUE(out.empty()) << out;

    std::ofstream(path) << "ld 0x1000 0\nst 0x2000 65534\n";
    ASSERT_EQ(runCli({"trace", "info", path.c_str()}, out, err), 0) << err;
    EXPECT_NE(out.find("launch-shape: 65535 ctas x 4 warps"),
              std::string::npos)
        << out;
}

TEST(Cli, UsageMentionsTheQueueFlags)
{
    std::string out, err;
    ASSERT_EQ(runCli({"--help"}, out, err), 0);
    for (const char *flag :
         {"--backend", "--spool-dir", "--job-timeout", "--worker",
          "--cache-stats", "--cache-max-mb"})
        EXPECT_NE(out.find(flag), std::string::npos) << flag;
}

#ifdef __unix__
TEST(Cli, ScratchCacheDirTemplateHonorsTmpdir)
{
    // Save and restore whatever the harness environment set.
    const char *saved = std::getenv("TMPDIR");
    const std::string saved_val = saved ? saved : "";

    ::setenv("TMPDIR", "/some/scratch", 1);
    EXPECT_EQ(cli::scratchCacheDirTemplate(),
              "/some/scratch/bwsim-cache-XXXXXX");

    // Trailing slashes must not double the separator.
    ::setenv("TMPDIR", "/some/scratch///", 1);
    EXPECT_EQ(cli::scratchCacheDirTemplate(),
              "/some/scratch/bwsim-cache-XXXXXX");

    // Unset or empty falls back to /tmp like mktemp(1).
    ::unsetenv("TMPDIR");
    EXPECT_EQ(cli::scratchCacheDirTemplate(), "/tmp/bwsim-cache-XXXXXX");
    ::setenv("TMPDIR", "", 1);
    EXPECT_EQ(cli::scratchCacheDirTemplate(), "/tmp/bwsim-cache-XXXXXX");

    // The template actually works: mkdtemp() materializes the scratch
    // dir inside the TMPDIR the user asked for.
    const std::string base = "/tmp/bwsim-tmpdir-test";
    std::filesystem::remove_all(base);
    std::filesystem::create_directories(base);
    ::setenv("TMPDIR", base.c_str(), 1);
    std::string tmpl_str = cli::scratchCacheDirTemplate();
    ASSERT_EQ(tmpl_str.rfind(base + "/bwsim-cache-", 0), 0u);
    std::vector<char> tmpl(tmpl_str.begin(), tmpl_str.end());
    tmpl.push_back('\0');
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    EXPECT_TRUE(std::filesystem::is_directory(tmpl.data()));
    std::filesystem::remove_all(base);

    if (saved)
        ::setenv("TMPDIR", saved_val.c_str(), 1);
    else
        ::unsetenv("TMPDIR");
}
#endif // __unix__
