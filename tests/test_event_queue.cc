/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hh"

using namespace psim;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleIn(4, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 5u);
}

TEST(EventQueue, RunHonorsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    Tick t = eq.run(50);
    EXPECT_EQ(t, 50u);
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, InsertionOrderTiesAcrossWheelAndHeap)
{
    // Two events at the same tick, one through the overflow heap
    // (scheduled 300 out) and one through the time wheel (scheduled
    // when the tick was near): firing order is insertion order.
    std::vector<int> order;
    {
        EventQueue eq;
        eq.schedule(300, [&] { order.push_back(1); }); // heap, seq 1
        eq.schedule(100, [&] {
            eq.schedule(300, [&] { order.push_back(2); }); // wheel, later
        });
        eq.run();
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2}));

    order.clear();
    {
        EventQueue eq;
        eq.schedule(100, [&] {
            // Scheduled at t=100, i.e. after the heap event below was
            // inserted: it ties at tick 300 but loses the insertion-
            // order tie-break even though it sits in the faster
            // container.
            eq.schedule(300, [&] { order.push_back(1); });
        });
        eq.schedule(300, [&] { order.push_back(2); });
        eq.run();
    }
    EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, LongAndShortDelaysInterleaveInTimeOrder)
{
    EventQueue eq;
    std::vector<Tick> fired_at;
    // Mix of wheel-horizon hits and heap residents.
    for (Tick d : {400u, 1u, 255u, 256u, 1000u, 7u, 512u, 257u})
        eq.scheduleIn(d, [&] { fired_at.push_back(eq.now()); });
    eq.run();
    std::vector<Tick> sorted = fired_at;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(fired_at, sorted);
    EXPECT_EQ(fired_at.size(), 8u);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, ManyEventsGrowThePoolTransparently)
{
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 10000; ++i)
        eq.scheduleIn(1 + static_cast<Tick>(i % 300),
                      [&] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 10000);
}

TEST(EventQueueDeath, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "schedule in the past");
}
