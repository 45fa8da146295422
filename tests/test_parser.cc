/**
 * @file
 * Tests for the text workload format: parsing, validation errors,
 * round-tripping through formatWorkload, and an end-to-end run of a
 * parsed application.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "apps/parser.hh"
#include "core/experiment.hh"

namespace
{

using namespace cedar::apps;

const char *const example = R"(
# a small stencil-like code
app stencil
steps 5
serial compute=20000 pages=3 io=1
sdoall outer=9 inner=24 compute=1200 words=256 burst=64 halo=128
xdoall iters=64 compute=900 words=64 jitter=0.05
mc iters=16 compute=700
cdoacross iters=8 compute=500 serial=300
)";

TEST(Parser, ParsesAllDirectives)
{
    const auto app = parseWorkloadString(example);
    EXPECT_EQ(app.name, "stencil");
    EXPECT_EQ(app.steps, 5u);
    ASSERT_EQ(app.phases.size(), 5u);

    const auto &s = std::get<SerialSpec>(app.phases[0]);
    EXPECT_EQ(s.compute, 20000u);
    EXPECT_EQ(s.pages, 3u);
    EXPECT_EQ(s.ioOps, 1u);

    const auto &sd = std::get<LoopSpec>(app.phases[1]);
    EXPECT_EQ(sd.kind, LoopKind::sdoall);
    EXPECT_EQ(sd.outerIters, 9u);
    EXPECT_EQ(sd.innerIters, 24u);
    EXPECT_EQ(sd.words, 256u);
    EXPECT_EQ(sd.haloWords, 128u);

    const auto &xd = std::get<LoopSpec>(app.phases[2]);
    EXPECT_EQ(xd.kind, LoopKind::xdoall);
    EXPECT_EQ(xd.outerIters, 64u);
    EXPECT_DOUBLE_EQ(xd.jitterFrac, 0.05);

    const auto &mc = std::get<LoopSpec>(app.phases[3]);
    EXPECT_EQ(mc.kind, LoopKind::mc_cdoall);

    const auto &ca = std::get<LoopSpec>(app.phases[4]);
    EXPECT_EQ(ca.kind, LoopKind::cdoacross);
    EXPECT_EQ(ca.serialRegion, 300u);
}

TEST(Parser, DefaultsApplied)
{
    const auto app =
        parseWorkloadString("xdoall iters=10 compute=100\n");
    const auto &l = std::get<LoopSpec>(app.phases[0]);
    EXPECT_EQ(l.words, 0u);
    EXPECT_EQ(l.pickupBlock, 1u);
    EXPECT_FALSE(l.prefetch);
    EXPECT_GT(l.regionWords, 0u);
}

TEST(Parser, FlagsAndBlocks)
{
    const auto app = parseWorkloadString(
        "xdoall iters=10 compute=100 words=16 block=8 prefetch\n");
    const auto &l = std::get<LoopSpec>(app.phases[0]);
    EXPECT_EQ(l.pickupBlock, 8u);
    EXPECT_TRUE(l.prefetch);
}

TEST(Parser, CommentsAndBlankLinesIgnored)
{
    const auto app = parseWorkloadString(
        "# header\n\napp x # trailing\nxdoall iters=4 compute=10\n");
    EXPECT_EQ(app.name, "x");
    EXPECT_EQ(app.phases.size(), 1u);
}

TEST(Parser, ErrorsCarryLineNumbers)
{
    try {
        parseWorkloadString("app x\nbogus directive\n");
        FAIL() << "expected ParseError";
    } catch (const ParseError &e) {
        EXPECT_EQ(e.line(), 2u);
    }
}

TEST(Parser, MissingRequiredKeyThrows)
{
    EXPECT_THROW(parseWorkloadString("sdoall outer=4 inner=4\n"),
                 ParseError);
    EXPECT_THROW(parseWorkloadString("xdoall compute=100\n"),
                 ParseError);
    EXPECT_THROW(parseWorkloadString("cdoacross iters=4 compute=9\n"),
                 ParseError);
}

TEST(Parser, BadNumbersThrow)
{
    EXPECT_THROW(parseWorkloadString("xdoall iters=abc compute=100\n"),
                 ParseError);
    EXPECT_THROW(parseWorkloadString("steps zero\n"), ParseError);
}

TEST(Parser, HostileCountsRejected)
{
    // Every count is checked against its field before any cast:
    // nothing negates, truncates at an exponent, or wraps.
    const char *bad[] = {
        "xdoall iters=8 compute=500 words=16 burst=-1\n",
        "xdoall iters=8 compute=500 words=4294967296\n",
        "xdoall iters=1e300 compute=500\n",
        "xdoall iters=8 compute=-5\n",
        "xdoall iters=8 compute=1e20\n",
        "xdoall iters=8 compute=500 words=1.5\n",
        "xdoall iters=8 compute=500 jitter=0.1abc\n",
        "xdoall iters=8 compute=500 jitter=nan\n",
        "steps -1\nserial compute=1\n",
        "steps 4294967296\nserial compute=1\n",
    };
    for (const char *text : bad)
        EXPECT_THROW(parseWorkloadString(text), ParseError) << text;
}

TEST(Parser, ScientificCountsReadExactly)
{
    const auto app = parseWorkloadString(
        "xdoall iters=8 compute=5e2 words=1e6\n");
    const auto &l = std::get<LoopSpec>(app.phases.at(0));
    EXPECT_EQ(l.words, 1000000u); // not 1: the exponent is read
    EXPECT_EQ(l.computePerIter, 500u);
}

TEST(Parser, HugeBurstRunsLikeOneBurst)
{
    // A burst length of at least the word count streams the words as
    // one burst, however large. Near 2^32 the burst count once
    // wrapped to zero and the runtime divided by it (SIGFPE).
    const auto run = [](const std::string &burst) {
        const auto r = cedar::core::runExperiment(
            parseWorkloadString("app t\nsteps 2\nxdoall iters=8 "
                                "compute=500 words=16 burst=" +
                                burst + "\n"),
            8);
        std::ostringstream os;
        r.metrics.writeJson(os);
        return std::make_tuple(r.ct, r.eventsExecuted, r.globalWords,
                               os.str());
    };
    const auto one_burst = run("16");
    EXPECT_EQ(run("4294967295"), one_burst);
    EXPECT_EQ(run("4294967281"), one_burst);
}

TEST(Parser, EmptyWorkloadThrows)
{
    EXPECT_THROW(parseWorkloadString("# nothing\n"), ParseError);
    EXPECT_THROW(parseWorkloadString("app x\nsteps 3\n"), ParseError);
}

TEST(Parser, RegionMustExceedWords)
{
    EXPECT_THROW(parseWorkloadString(
                     "xdoall iters=4 compute=10 words=100 region=50\n"),
                 ParseError);
}

TEST(Parser, ZeroBurstRejected)
{
    // A zero burst length must not reach the runtime: it divides by
    // zero with one word per iteration and issues empty bursts
    // forever with more.
    EXPECT_THROW(parseWorkloadString(
                     "xdoall iters=16 compute=1500 words=1 burst=0\n"),
                 ParseError);
    EXPECT_THROW(parseWorkloadString(
                     "sdoall outer=2 inner=4 compute=9 words=24 burst=0\n"),
                 ParseError);
    // 2^32 would truncate to a zero-length burst.
    EXPECT_THROW(parseWorkloadString("xdoall iters=4 compute=10 words=8 "
                                     "burst=4294967296\n"),
                 ParseError);
}

TEST(Parser, RoundTripThroughFormat)
{
    const auto app = parseWorkloadString(example);
    const auto text = formatWorkload(app);
    const auto back = parseWorkloadString(text);
    EXPECT_EQ(back.name, app.name);
    EXPECT_EQ(back.steps, app.steps);
    ASSERT_EQ(back.phases.size(), app.phases.size());
    for (std::size_t i = 0; i < app.phases.size(); ++i) {
        const auto *a = std::get_if<LoopSpec>(&app.phases[i]);
        const auto *b = std::get_if<LoopSpec>(&back.phases[i]);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (!a)
            continue;
        EXPECT_EQ(a->kind, b->kind);
        EXPECT_EQ(a->outerIters, b->outerIters);
        EXPECT_EQ(a->innerIters, b->innerIters);
        EXPECT_EQ(a->computePerIter, b->computePerIter);
        EXPECT_EQ(a->words, b->words);
        EXPECT_EQ(a->regionWords, b->regionWords);
    }
}

TEST(Parser, ParsedWorkloadRunsEndToEnd)
{
    const auto app = parseWorkloadString(example);
    const auto r = cedar::core::runExperiment(app, 16);
    EXPECT_GT(r.ct, 0u);
    EXPECT_EQ(r.rtlStats.loopsPosted, 5u * 4u); // 4 loops x 5 steps
}

} // namespace
