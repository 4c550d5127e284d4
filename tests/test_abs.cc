/**
 * @file
 * Adaptive Batch Sensor tests (§4.4): endurance profiling, the
 * initial 2·mean setting, clamping into [mr_min, mr_max], plateau-
 * triggered logarithmic decay and its cadence, epoch reset.
 */

#include <gtest/gtest.h>

#include "core/abs.hh"
#include "graph/dataset.hh"

using namespace cascade;

namespace {

AdaptiveBatchSensor::Options
baseOptions(size_t base_batch = 8)
{
    AdaptiveBatchSensor::Options o;
    o.baseBatch = base_batch;
    o.sampleBatches = 50;
    o.period = 20;
    o.plateau = 10;
    return o;
}

EnduranceStats
stats(double mn, double mean, double mx, size_t batches)
{
    EnduranceStats s;
    s.mrMin = mn;
    s.mrMean = mean;
    s.mrMax = mx;
    s.batchCount = batches;
    return s;
}

} // namespace

TEST(Abs, ProfileProducesConsistentStats)
{
    DatasetSpec spec = wikiSpec(200.0);
    Rng rng(1);
    EventSequence seq = generateDataset(spec, rng);
    DependencyTable table =
        DependencyTable::build(seq, 0, seq.size());

    AdaptiveBatchSensor abs(baseOptions(spec.baseBatch));
    EnduranceStats s = abs.profile(seq, table);
    EXPECT_GE(s.mrMin, 1.0);
    EXPECT_GE(s.mrMean, s.mrMin);
    EXPECT_GE(s.mrMax, s.mrMean);
    EXPECT_EQ(s.batchCount,
              (seq.size() + spec.baseBatch - 1) / spec.baseBatch);
    // Max endurance within a batch cannot exceed the batch length
    // as incident events, but entries include neighbor futures, so
    // the bound is the full batch window.
    EXPECT_LE(s.mrMax, static_cast<double>(spec.baseBatch));
}

TEST(Abs, InitialMaxRevisitIsTwiceMeanClamped)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);

    // 2*mean above mr_max clamps down.
    abs.setStats(stats(2, 40, 60, 100));
    EXPECT_EQ(abs.currentMaxRevisit(), 60u);

    // 2*mean below mr_min clamps up (degenerate but guarded).
    abs.setStats(stats(30, 10, 60, 100));
    EXPECT_EQ(abs.currentMaxRevisit(), 30u);
}

TEST(Abs, ImprovingLossNeverDecays)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    double loss = 1.0;
    for (int i = 0; i < 100; ++i) {
        abs.observeLoss(loss);
        loss *= 0.99; // steadily improving
    }
    EXPECT_EQ(abs.decayCount(), 0u);
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);
}

TEST(Abs, PlateauTriggersDecayAtPeriodCadence)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    // Flat loss: plateau from the start.
    for (int i = 0; i < 19; ++i)
        abs.observeLoss(0.5);
    EXPECT_EQ(abs.decayCount(), 0u); // before the 20-batch decision
    abs.observeLoss(0.5);
    EXPECT_EQ(abs.decayCount(), 1u); // decision fires at batch 20
    for (int i = 0; i < 20; ++i)
        abs.observeLoss(0.5);
    EXPECT_EQ(abs.decayCount(), 2u);
}

TEST(Abs, DecayedValueStaysInProfiledRange)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 50));
    for (int i = 0; i < 2000; ++i)
        abs.observeLoss(0.5);
    EXPECT_GE(abs.currentMaxRevisit(), 2u);
    EXPECT_LE(abs.currentMaxRevisit(), 60u);
    EXPECT_GT(abs.decayCount(), 10u);
}

TEST(Abs, DecayIsMonotonicallyNonIncreasing)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(4, 12, 40, 30));
    size_t prev = abs.currentMaxRevisit();
    for (int i = 0; i < 500; ++i) {
        abs.observeLoss(0.7);
        ASSERT_LE(abs.currentMaxRevisit(), prev);
        prev = abs.currentMaxRevisit();
    }
}

TEST(Abs, EpochResetRestoresInitialValue)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    for (int i = 0; i < 200; ++i)
        abs.observeLoss(0.9);
    abs.resetEpoch();
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);
    // And the plateau tracking restarts.
    abs.observeLoss(0.1);
    EXPECT_EQ(abs.currentMaxRevisit(), 20u);
}

TEST(Abs, ImprovementResetsPlateauWindow)
{
    AdaptiveBatchSensor abs(baseOptions());
    abs.setStats(stats(2, 10, 60, 100));
    double loss = 1.0;
    // Improve every 5th batch: the plateau window (10) never fills.
    for (int i = 0; i < 200; ++i) {
        if (i % 5 == 0)
            loss -= 0.004;
        abs.observeLoss(loss);
    }
    EXPECT_EQ(abs.decayCount(), 0u);
}

TEST(Abs, ProfileDeterministicForSeed)
{
    DatasetSpec spec = wikiSpec(300.0);
    Rng rng(3);
    EventSequence seq = generateDataset(spec, rng);
    DependencyTable table =
        DependencyTable::build(seq, 0, seq.size());

    AdaptiveBatchSensor a(baseOptions(spec.baseBatch));
    AdaptiveBatchSensor b(baseOptions(spec.baseBatch));
    EnduranceStats sa = a.profile(seq, table);
    EnduranceStats sb = b.profile(seq, table);
    EXPECT_DOUBLE_EQ(sa.mrMean, sb.mrMean);
    EXPECT_DOUBLE_EQ(sa.mrMax, sb.mrMax);
    EXPECT_DOUBLE_EQ(sa.mrMin, sb.mrMin);
}
