#include "src/mapreduce/cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/error.hpp"

namespace mrsky::mr {
namespace {

TEST(LptMakespan, EmptyTasksZero) {
  EXPECT_DOUBLE_EQ(lpt_makespan(std::span<const double>{}, 4), 0.0);
}

TEST(LptMakespan, SingleLaneIsSum) {
  const std::vector<double> costs = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 1), 6.0);
}

TEST(LptMakespan, PerfectSplit) {
  const std::vector<double> costs = {3.0, 3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 2), 6.0);
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 4), 3.0);
}

TEST(LptMakespan, BigTaskDominates) {
  const std::vector<double> costs = {10.0, 1.0, 1.0, 1.0};
  // The long task bounds the makespan no matter how many lanes.
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 8), 10.0);
}

TEST(LptMakespan, GreedyScheduleIsReproducible) {
  // LPT on {5,4,3,3,3} over 2 lanes: 5|4 -> 5|7 -> 8|7 -> 8|10. The greedy
  // makespan (10) is within the classic 4/3 bound of the optimum (9).
  const std::vector<double> costs = {3.0, 3.0, 5.0, 4.0, 3.0};
  EXPECT_DOUBLE_EQ(lpt_makespan(costs, 2), 10.0);
}

TEST(LptMakespan, MoreLanesNeverSlower) {
  const std::vector<double> costs = {4.0, 3.0, 7.0, 2.0, 9.0, 1.0};
  double prev = lpt_makespan(costs, 1);
  for (std::size_t lanes = 2; lanes <= 8; ++lanes) {
    const double cur = lpt_makespan(costs, lanes);
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

TEST(LptMakespan, ZeroLanesThrows) {
  const std::vector<double> one = {1.0};
  EXPECT_THROW((void)lpt_makespan(one, 0), mrsky::InvalidArgument);
}

JobMetrics sample_metrics() {
  JobMetrics m;
  m.job_name = "sample";
  for (int i = 0; i < 8; ++i) {
    TaskMetrics t;
    t.records_in = 1000;
    t.work_units = 50000;
    m.map_tasks.push_back(t);
  }
  for (int i = 0; i < 4; ++i) {
    TaskMetrics t;
    t.records_in = 100;
    t.work_units = 200000;
    m.reduce_tasks.push_back(t);
  }
  m.shuffle_records = 400;
  return m;
}

TEST(SimulateJob, StartupAlwaysCharged) {
  ClusterModel model;
  model.job_startup_seconds = 42.0;
  const PhaseTimes t = simulate_job(JobMetrics{}, model);
  EXPECT_DOUBLE_EQ(t.startup_seconds, 42.0);
  EXPECT_DOUBLE_EQ(t.map_seconds, 0.0);
  EXPECT_DOUBLE_EQ(t.reduce_seconds, 0.0);
}

TEST(SimulateJob, MoreServersShrinkMapPhase) {
  const JobMetrics m = sample_metrics();
  ClusterModel small;
  small.servers = 2;
  ClusterModel big;
  big.servers = 8;
  EXPECT_GT(simulate_job(m, small).map_seconds, simulate_job(m, big).map_seconds);
}

TEST(SimulateJob, SaturatesWhenTasksFewerThanLanes) {
  const JobMetrics m = sample_metrics();  // 8 map tasks
  ClusterModel enough;
  enough.servers = 4;  // 8 lanes at 2 slots each
  ClusterModel excess;
  excess.servers = 32;
  EXPECT_DOUBLE_EQ(simulate_job(m, enough).map_seconds, simulate_job(m, excess).map_seconds);
}

TEST(SimulateJob, WorkUnitsDriveCost) {
  JobMetrics light = sample_metrics();
  JobMetrics heavy = sample_metrics();
  for (auto& t : heavy.reduce_tasks) t.work_units *= 10;
  const ClusterModel model;
  EXPECT_GT(simulate_job(heavy, model).reduce_seconds, simulate_job(light, model).reduce_seconds);
}

TEST(SimulateJob, PerRecordCostsCount) {
  JobMetrics few = sample_metrics();
  JobMetrics many = sample_metrics();
  for (auto& t : many.map_tasks) t.records_in *= 100;
  const ClusterModel model;
  EXPECT_GT(simulate_job(many, model).map_seconds, simulate_job(few, model).map_seconds);
}

TEST(PhaseTimes, TotalsAndAccumulation) {
  PhaseTimes a{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(a.total_seconds(), 6.0);
  const PhaseTimes b{0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.total_seconds(), 7.5);
}

TEST(SimulatePipeline, SumsJobs) {
  const JobMetrics m = sample_metrics();
  const ClusterModel model;
  const std::vector<JobMetrics> two = {m, m};
  const PhaseTimes once = simulate_job(m, model);
  const PhaseTimes both = simulate_pipeline(two, model);
  EXPECT_NEAR(both.total_seconds(), 2.0 * once.total_seconds(), 1e-9);
}

TEST(ClusterModel, LaneArithmetic) {
  ClusterModel model;
  model.servers = 5;
  model.map_slots_per_server = 3;
  model.reduce_slots_per_server = 2;
  EXPECT_EQ(model.map_lanes(), 15u);
  EXPECT_EQ(model.reduce_lanes(), 10u);
}

// ---- Node-failure recovery -------------------------------------------------
//
// Hand-worked golden scenario: tasks {4,3,2,1} over 2 servers x 1 slot.
// Base LPT: lane0 runs t0 [0,4] then t3 [4,5]; lane1 runs t1 [0,3] then
// t2 [3,5]; makespan 5.

const std::vector<double> kGoldenCosts = {4.0, 3.0, 2.0, 1.0};
const std::vector<double> kTwoLanes = {1.0, 1.0};

TEST(NodeFailure, NoFailuresMatchesPlainLpt) {
  const PhaseSchedule plain = lpt_schedule(kGoldenCosts, kTwoLanes);
  const PhaseSchedule with = lpt_schedule_with_failures(kGoldenCosts, kTwoLanes, 1, {}, 0.0,
                                                        true, false);
  EXPECT_DOUBLE_EQ(with.makespan_seconds, plain.makespan_seconds);
  for (const auto& p : with.placements) EXPECT_FALSE(p.reexecuted);
}

TEST(NodeFailure, MapPhaseLossReexecutesCompletedOutput) {
  // Server 1 dies at t=3.5: t1 completed there ([0,3], output lost), t2 is
  // in flight ([3,5], killed). Both re-execute serially on lane 0 after its
  // committed work (t0 ends at 4): t1 [4,7], t2 [7,9], then t3 [9,10].
  const std::vector<NodeFailure> failures = {{1, 3.5}};
  const PhaseSchedule s = lpt_schedule_with_failures(kGoldenCosts, kTwoLanes, 1, failures, 0.0,
                                                     /*lose_completed_outputs=*/true, false);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 10.0);
  EXPECT_FALSE(s.placements[0].reexecuted);
  EXPECT_TRUE(s.placements[1].reexecuted);
  EXPECT_TRUE(s.placements[2].reexecuted);
  EXPECT_FALSE(s.placements[3].reexecuted);
  for (const auto& p : s.placements) EXPECT_EQ(p.lane, 0u);
}

TEST(NodeFailure, ReducePhaseLossKeepsCompletedOutput) {
  // Same event without output loss (reduce semantics): t1's result is safe,
  // only in-flight t2 re-executes ([4,6]) and t3 follows ([6,7]).
  const std::vector<NodeFailure> failures = {{1, 3.5}};
  const PhaseSchedule s = lpt_schedule_with_failures(kGoldenCosts, kTwoLanes, 1, failures, 0.0,
                                                     /*lose_completed_outputs=*/false, false);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 7.0);
  EXPECT_FALSE(s.placements[1].reexecuted);
  EXPECT_TRUE(s.placements[2].reexecuted);
}

TEST(NodeFailure, LossAfterPhaseEndIsIgnored) {
  const std::vector<NodeFailure> failures = {{1, 6.0}};
  const PhaseSchedule s = lpt_schedule_with_failures(kGoldenCosts, kTwoLanes, 1, failures, 0.0,
                                                     true, false);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 5.0);
  for (const auto& p : s.placements) EXPECT_FALSE(p.reexecuted);
}

TEST(NodeFailure, DeadFromStartSerialisesOntoSurvivor) {
  const std::vector<NodeFailure> failures = {{1, 0.0}};
  const PhaseSchedule s = lpt_schedule_with_failures(kGoldenCosts, kTwoLanes, 1, failures, 0.0,
                                                     true, false);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 10.0);  // 4+3+2+1 serial on lane 0
  for (const auto& p : s.placements) {
    EXPECT_EQ(p.lane, 0u);
    EXPECT_FALSE(p.reexecuted);  // nothing ever ran on the dead server
  }
}

TEST(NodeFailure, PhaseStartShiftsTheClock) {
  // Job-relative time 103.5 with the phase starting at 100 is the same
  // event as 3.5 with the phase starting at 0.
  const std::vector<NodeFailure> failures = {{1, 103.5}};
  const PhaseSchedule s = lpt_schedule_with_failures(kGoldenCosts, kTwoLanes, 1, failures,
                                                     /*phase_start_seconds=*/100.0, true, false);
  EXPECT_DOUBLE_EQ(s.makespan_seconds, 10.0);
}

TEST(NodeFailure, AllServersDeadThrows) {
  const std::vector<NodeFailure> failures = {{0, 0.0}, {1, 0.0}};
  EXPECT_THROW(lpt_schedule_with_failures(kGoldenCosts, kTwoLanes, 1, failures, 0.0, true,
                                          false),
               mrsky::InvalidArgument);
}

TEST(NodeFailure, SpeculationNeverWorseAfterLoss) {
  const std::vector<double> lanes4 = {1.0, 1.0, 1.0, 1.0};
  const std::vector<double> costs = {9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0};
  const std::vector<NodeFailure> failures = {{1, 2.5}};
  const PhaseSchedule plain =
      lpt_schedule_with_failures(costs, lanes4, 2, failures, 0.0, true, false);
  const PhaseSchedule spec =
      lpt_schedule_with_failures(costs, lanes4, 2, failures, 0.0, true, true);
  EXPECT_LE(spec.makespan_seconds, plain.makespan_seconds + 1e-12);
}

TEST(NodeFailure, TraceJobAppliesFailuresToBothPhases) {
  const JobMetrics m = sample_metrics();
  ClusterModel healthy;
  healthy.servers = 4;
  ClusterModel degraded = healthy;
  degraded.node_failures.push_back({0, 0.0});  // dead for the whole job
  const ScheduleTrace h = trace_job(m, healthy);
  const ScheduleTrace d = trace_job(m, degraded);
  // One of four servers gone: both phases run on fewer lanes, never faster.
  EXPECT_GE(d.times.map_seconds, h.times.map_seconds);
  EXPECT_GE(d.times.reduce_seconds, h.times.reduce_seconds);
  EXPECT_GT(d.times.total_seconds(), h.times.total_seconds());
  for (const auto& p : d.map.placements) EXPECT_GE(p.lane / 2, 1u);  // 2 map slots
}

TEST(NodeFailure, MidMapLossMarksReexecutedPlacements) {
  const JobMetrics m = sample_metrics();
  ClusterModel model;
  model.servers = 4;
  const double map_half = trace_job(m, model).times.map_seconds / 2.0;
  model.node_failures.push_back({0, map_half});
  const ScheduleTrace d = trace_job(m, model);
  bool any = false;
  for (const auto& p : d.map.placements) any = any || p.reexecuted;
  EXPECT_TRUE(any);
}

TEST(NodeFailure, WasteAwareCostIsMeasuredNotImputed) {
  // One map task: 1000 records, a failed attempt that got through 500.
  // Cost = full (1 + 1000 * 1e-3) + waste (1 startup + 500 * 1e-3) = 3.5 —
  // cheaper than the attempts x full imputation (4.0).
  JobMetrics m;
  TaskMetrics t;
  t.records_in = 1000;
  t.attempts = 2;
  t.wasted_records = 500;
  m.map_tasks.push_back(t);
  ClusterModel model;
  model.servers = 1;
  model.map_slots_per_server = 1;
  model.task_startup_seconds = 1.0;
  model.seconds_per_map_record = 1e-3;
  model.seconds_per_work_unit = 0.0;
  model.job_startup_seconds = 0.0;
  EXPECT_DOUBLE_EQ(trace_job(m, model).times.map_seconds, 3.5);
}

/// A task with its four headline counters set; every other field keeps its
/// default.
TaskMetrics task_metrics(std::uint64_t records_in, std::uint64_t records_out,
                         std::uint64_t work_units, std::int64_t wall_ns) {
  TaskMetrics t;
  t.records_in = records_in;
  t.records_out = records_out;
  t.work_units = work_units;
  t.wall_ns = wall_ns;
  return t;
}

TEST(TaskMetrics, Accumulates) {
  TaskMetrics a = task_metrics(1, 2, 3, 4);
  const TaskMetrics b = task_metrics(10, 20, 30, 40);
  a += b;
  EXPECT_EQ(a.records_in, 11u);
  EXPECT_EQ(a.records_out, 22u);
  EXPECT_EQ(a.work_units, 33u);
  EXPECT_EQ(a.wall_ns, 44);
}

TEST(JobMetrics, TotalsAggregateTasks) {
  const JobMetrics m = sample_metrics();
  EXPECT_EQ(m.map_total().records_in, 8000u);
  EXPECT_EQ(m.reduce_total().work_units, 800000u);
  EXPECT_EQ(m.total_work_units(), 8u * 50000u + 4u * 200000u);
}

}  // namespace
}  // namespace mrsky::mr
