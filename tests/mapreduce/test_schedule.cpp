// Schedule-trace, heterogeneous-cluster, straggler and speculative-execution
// tests for the simulator extensions.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "src/common/error.hpp"
#include "src/mapreduce/cluster.hpp"

namespace mrsky::mr {
namespace {

TEST(LptSchedule, PlacementsCoverAllTasks) {
  const std::vector<double> costs = {3.0, 1.0, 2.0, 5.0};
  const std::vector<double> speeds = {1.0, 1.0};
  const PhaseSchedule schedule = lpt_schedule(costs, speeds);
  ASSERT_EQ(schedule.placements.size(), 4u);
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EXPECT_EQ(schedule.placements[i].task_index, i);
    EXPECT_LT(schedule.placements[i].lane, speeds.size());
  }
}

TEST(LptSchedule, DurationsMatchCostOverSpeed) {
  const std::vector<double> costs = {4.0, 2.0};
  const std::vector<double> speeds = {2.0, 1.0};
  const PhaseSchedule schedule = lpt_schedule(costs, speeds);
  for (const auto& p : schedule.placements) {
    const double expected = costs[p.task_index] / speeds[p.lane];
    EXPECT_NEAR(p.end_seconds - p.start_seconds, expected, 1e-12);
  }
}

TEST(LptSchedule, NoOverlapWithinLane) {
  const std::vector<double> costs = {5.0, 4.0, 3.0, 2.0, 1.0, 2.5, 3.5};
  const std::vector<double> speeds = {1.0, 1.0, 1.0};
  const PhaseSchedule schedule = lpt_schedule(costs, speeds);
  std::map<std::size_t, std::vector<std::pair<double, double>>> by_lane;
  for (const auto& p : schedule.placements) {
    by_lane[p.lane].push_back({p.start_seconds, p.end_seconds});
  }
  for (auto& [lane, intervals] : by_lane) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-12) << "lane " << lane;
    }
  }
}

TEST(LptSchedule, MakespanIsMaxEnd) {
  const std::vector<double> costs = {1.0, 2.0, 3.0};
  const std::vector<double> speeds = {1.0};
  const PhaseSchedule schedule = lpt_schedule(costs, speeds);
  double max_end = 0.0;
  for (const auto& p : schedule.placements) max_end = std::max(max_end, p.end_seconds);
  EXPECT_DOUBLE_EQ(schedule.makespan_seconds, max_end);
  EXPECT_DOUBLE_EQ(schedule.makespan_seconds, 6.0);
}

TEST(LptSchedule, FastLaneAttractsWork) {
  // One lane 4x faster: it should complete more total cost.
  std::vector<double> costs(16, 1.0);
  const std::vector<double> speeds = {4.0, 1.0};
  const PhaseSchedule schedule = lpt_schedule(costs, speeds);
  double fast_cost = 0.0;
  double slow_cost = 0.0;
  for (const auto& p : schedule.placements) {
    (p.lane == 0 ? fast_cost : slow_cost) += 1.0;
  }
  EXPECT_GT(fast_cost, slow_cost);
}

TEST(LptSchedule, HeterogeneousBeatsUniformSlow) {
  const std::vector<double> costs = {4.0, 4.0, 4.0, 4.0};
  const std::vector<double> fast = {2.0, 2.0};
  const std::vector<double> slow = {1.0, 1.0};
  EXPECT_LT(lpt_schedule(costs, fast).makespan_seconds,
            lpt_schedule(costs, slow).makespan_seconds);
}

TEST(LptSchedule, RejectsBadLanes) {
  const std::vector<double> costs = {1.0};
  EXPECT_THROW((void)lpt_schedule(costs, std::span<const double>{}), mrsky::InvalidArgument);
  const std::vector<double> zero = {0.0};
  EXPECT_THROW((void)lpt_schedule(costs, zero), mrsky::InvalidArgument);
}

JobMetrics sample_metrics() {
  JobMetrics m;
  for (int i = 0; i < 6; ++i) {
    TaskMetrics t;
    t.records_in = 500;
    t.work_units = 100000;
    m.map_tasks.push_back(t);
  }
  for (int i = 0; i < 3; ++i) {
    TaskMetrics t;
    t.records_in = 200;
    t.work_units = 400000;
    m.reduce_tasks.push_back(t);
  }
  return m;
}

TEST(TraceJob, TimesMatchSimulateJob) {
  const JobMetrics m = sample_metrics();
  ClusterModel model;
  model.servers = 4;
  const ScheduleTrace trace = trace_job(m, model);
  const PhaseTimes times = simulate_job(m, model);
  EXPECT_DOUBLE_EQ(trace.times.map_seconds, times.map_seconds);
  EXPECT_DOUBLE_EQ(trace.times.reduce_seconds, times.reduce_seconds);
  EXPECT_DOUBLE_EQ(trace.times.startup_seconds, times.startup_seconds);
}

TEST(TraceJob, LaneCountsFollowSlots) {
  const JobMetrics m = sample_metrics();
  ClusterModel model;
  model.servers = 3;
  model.map_slots_per_server = 2;
  model.reduce_slots_per_server = 1;
  const ScheduleTrace trace = trace_job(m, model);
  EXPECT_EQ(trace.map.lane_speeds.size(), 6u);
  EXPECT_EQ(trace.reduce.lane_speeds.size(), 3u);
}

TEST(ClusterModel, DefaultSpeedIsOne) {
  ClusterModel model;
  EXPECT_DOUBLE_EQ(model.server_speed(0), 1.0);
  EXPECT_DOUBLE_EQ(model.server_speed(99), 1.0);
}

TEST(ClusterModel, SpeedFactorsApply) {
  ClusterModel model;
  model.server_speed_factors = {2.0, 0.5};
  EXPECT_DOUBLE_EQ(model.server_speed(0), 2.0);
  EXPECT_DOUBLE_EQ(model.server_speed(1), 0.5);
  EXPECT_DOUBLE_EQ(model.server_speed(2), 1.0);  // beyond table: default
}

TEST(ClusterModel, WithStragglersSlowsTail) {
  ClusterModel model;
  model.servers = 4;
  const ClusterModel degraded = model.with_stragglers(2, 4.0);
  EXPECT_DOUBLE_EQ(degraded.server_speed(0), 1.0);
  EXPECT_DOUBLE_EQ(degraded.server_speed(1), 1.0);
  EXPECT_DOUBLE_EQ(degraded.server_speed(2), 0.25);
  EXPECT_DOUBLE_EQ(degraded.server_speed(3), 0.25);
}

TEST(ClusterModel, StragglersIncreaseMakespan) {
  const JobMetrics m = sample_metrics();
  ClusterModel model;
  model.servers = 4;
  const PhaseTimes healthy = simulate_job(m, model);
  const PhaseTimes degraded = simulate_job(m, model.with_stragglers(2, 10.0));
  EXPECT_GT(degraded.map_seconds + degraded.reduce_seconds,
            healthy.map_seconds + healthy.reduce_seconds);
}

TEST(ClusterModel, SchedulerRoutesAroundStragglers) {
  // With enough healthy lanes, a mild straggler should cost less than the
  // naive slowdown factor: the LPT scheduler shifts work away from it.
  const JobMetrics m = sample_metrics();
  ClusterModel model;
  model.servers = 8;
  const double healthy = simulate_job(m, model).map_seconds;
  const double degraded = simulate_job(m, model.with_stragglers(1, 10.0)).map_seconds;
  EXPECT_LT(degraded, healthy * 10.0);
}

TEST(ClusterModel, WithStragglersValidation) {
  ClusterModel model;
  model.servers = 4;
  EXPECT_THROW((void)model.with_stragglers(5, 2.0), mrsky::InvalidArgument);
  EXPECT_THROW((void)model.with_stragglers(1, 0.5), mrsky::InvalidArgument);
}

// ---- Speculative execution -------------------------------------------------

TEST(Speculation, CutsStragglerMakespan) {
  // 8 equal tasks, one lane 10x slower: without speculation a task stuck on
  // the slow lane defines the makespan; with it a backup rescues that task.
  const std::vector<double> costs(8, 10.0);
  const std::vector<double> speeds = {1.0, 1.0, 1.0, 0.1};
  const PhaseSchedule plain = lpt_schedule(costs, speeds);
  const PhaseSchedule spec = lpt_schedule_speculative(costs, speeds);
  EXPECT_LT(spec.makespan_seconds, plain.makespan_seconds);
}

TEST(Speculation, MarksSpeculatedTasks) {
  const std::vector<double> costs(8, 10.0);
  const std::vector<double> speeds = {1.0, 1.0, 1.0, 0.1};
  const PhaseSchedule spec = lpt_schedule_speculative(costs, speeds);
  bool any = false;
  for (const auto& p : spec.placements) any = any || p.speculated;
  EXPECT_TRUE(any);
}

TEST(Speculation, NoOpOnBalancedSchedule) {
  const std::vector<double> costs(8, 5.0);
  const std::vector<double> speeds(4, 1.0);
  const PhaseSchedule plain = lpt_schedule(costs, speeds);
  const PhaseSchedule spec = lpt_schedule_speculative(costs, speeds);
  EXPECT_DOUBLE_EQ(spec.makespan_seconds, plain.makespan_seconds);
}

TEST(Speculation, NeverWorseThanPlain) {
  const std::vector<double> costs = {9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0};
  for (double slow : {1.0, 0.5, 0.25, 0.1}) {
    const std::vector<double> speeds = {1.0, 1.0, slow};
    EXPECT_LE(lpt_schedule_speculative(costs, speeds).makespan_seconds,
              lpt_schedule(costs, speeds).makespan_seconds + 1e-12);
  }
}

TEST(Speculation, ClusterModelFlagRoutesThroughTrace) {
  JobMetrics m;
  for (int i = 0; i < 8; ++i) {
    TaskMetrics t;
    t.work_units = 1000000;
    m.map_tasks.push_back(t);
  }
  m.reduce_tasks.push_back(TaskMetrics{});
  ClusterModel model;
  model.servers = 2;
  model.map_slots_per_server = 2;
  ClusterModel degraded = model.with_stragglers(1, 8.0);
  ClusterModel rescued = degraded;
  rescued.speculative_execution = true;
  EXPECT_LT(trace_job(m, rescued).times.map_seconds,
            trace_job(m, degraded).times.map_seconds);
}

}  // namespace
}  // namespace mrsky::mr
