#include <gtest/gtest.h>

#include "dip/pit/content_store.hpp"
#include "dip/pit/pit.hpp"

namespace dip::pit {
namespace {

// ---------- PIT ----------

TEST(Pit, CreateAggregateDuplicate) {
  Pit pit;
  EXPECT_EQ(pit.record_interest(1, 10, 0).value(), InterestResult::kCreated);
  EXPECT_EQ(pit.record_interest(1, 11, 0).value(), InterestResult::kAggregated);
  EXPECT_EQ(pit.record_interest(1, 10, 0).value(), InterestResult::kDuplicate);
  EXPECT_EQ(pit.size(), 1u);
  EXPECT_TRUE(pit.has_entry(1, 0));
  EXPECT_FALSE(pit.has_entry(2, 0));
}

TEST(Pit, DataConsumesEntryAndReturnsAllFaces) {
  Pit pit;
  pit.record_interest(7, 1, 0);
  pit.record_interest(7, 2, 0);
  pit.record_interest(7, 3, 0);

  const auto faces = pit.match_data(7, 1);
  EXPECT_EQ(faces, (std::vector<FaceId>{1, 2, 3}));

  // Consumed: second data is unsolicited.
  EXPECT_TRUE(pit.match_data(7, 1).empty());
  EXPECT_EQ(pit.size(), 0u);
}

TEST(Pit, MissOnUnknownName) {
  Pit pit;
  EXPECT_TRUE(pit.match_data(123, 0).empty());
}

TEST(Pit, EntryExpires) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);

  pit.record_interest(5, 1, 0);
  EXPECT_TRUE(pit.has_entry(5, 99));
  EXPECT_FALSE(pit.has_entry(5, 100));
  EXPECT_TRUE(pit.match_data(5, 150).empty()) << "expired entry must not match";
}

TEST(Pit, AggregationRefreshesLifetime) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);

  pit.record_interest(5, 1, 0);
  pit.record_interest(5, 2, 80);  // refresh at t=80 -> expiry 180
  EXPECT_TRUE(pit.has_entry(5, 150));
  const auto faces = pit.match_data(5, 150);
  EXPECT_EQ(faces.size(), 2u);
}

TEST(Pit, ReRequestAfterExpiryCreatesFreshEntry) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(5, 1, 0);
  EXPECT_EQ(pit.record_interest(5, 1, 200).value(), InterestResult::kCreated);
}

TEST(Pit, ExpireSweepsOnlyDue) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(1, 1, 0);    // expiry 100
  pit.record_interest(2, 1, 50);   // expiry 150
  pit.record_interest(3, 1, 120);  // expiry 220

  EXPECT_EQ(pit.expire(100), 1u);
  EXPECT_EQ(pit.size(), 2u);
  EXPECT_EQ(pit.expire(300), 2u);
  EXPECT_EQ(pit.size(), 0u);
  EXPECT_EQ(pit.expire(400), 0u);
}

TEST(Pit, RefreshedEntryNotSweptByStaleHeapItem) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(9, 1, 0);   // heap item at 100
  pit.record_interest(9, 2, 60);  // refreshed to 160
  EXPECT_EQ(pit.expire(100), 0u) << "stale heap item must not kill live entry";
  EXPECT_TRUE(pit.has_entry(9, 120));
}

TEST(Pit, CapacityLimitEnforced) {
  Pit::Config config;
  config.max_entries = 3;
  Pit pit(config);
  EXPECT_TRUE(pit.record_interest(1, 1, 0));
  EXPECT_TRUE(pit.record_interest(2, 1, 0));
  EXPECT_TRUE(pit.record_interest(3, 1, 0));
  EXPECT_FALSE(pit.record_interest(4, 1, 0)) << "table full: must refuse (2.4)";
  // Aggregation into an existing entry is still allowed at capacity.
  EXPECT_EQ(pit.record_interest(2, 9, 0).value(), InterestResult::kAggregated);
}

TEST(Pit, CapacityRecoversViaExpiry) {
  Pit::Config config;
  config.max_entries = 2;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(1, 1, 0);
  pit.record_interest(2, 1, 0);
  // At t=150 both are expired; the refused insert triggers a sweep.
  EXPECT_TRUE(pit.record_interest(3, 1, 150));
}

TEST(Pit, ExpiryHeapStaysBoundedWhenDataConsumesEntries) {
  // The normal NDN exchange: every interest is answered, so the table
  // stays small and expire() (which runs only at capacity) never pops the
  // expiry items the interests pushed. The heap must still stay within
  // its declared bound, 2 x size() + 64 items.
  Pit pit;
  for (std::uint64_t name = 0; name < 100'000; ++name) {
    ASSERT_EQ(pit.record_interest(name, 1, 0).value(), InterestResult::kCreated);
    ASSERT_EQ(pit.match_data(name, 0).size(), 1u);
    ASSERT_LE(pit.expiry_heap_size(), 2 * pit.size() + 64) << "after name " << name;
  }
  EXPECT_EQ(pit.size(), 0u);

  // Aggregation refreshes push items too; the live entries stay intact.
  for (SimTime now = 1; now <= 1000; ++now) {
    ASSERT_TRUE(pit.record_interest(7, static_cast<FaceId>(now), now));
    ASSERT_LE(pit.expiry_heap_size(), 2 * pit.size() + 64) << "at now " << now;
  }
  // The rebuilt heap still sweeps the refreshed entry, exactly once.
  const SimTime lifetime = Pit::Config{}.entry_lifetime;
  EXPECT_EQ(pit.expire(1000 + lifetime - 1), 0u);
  EXPECT_EQ(pit.expire(1000 + lifetime), 1u);
  EXPECT_EQ(pit.size(), 0u);
}

// ---------- ContentStore ----------

std::vector<std::uint8_t> payload(std::uint8_t tag) { return {tag, tag, tag}; }

TEST(ContentStore, InsertLookup) {
  ContentStore cs(4);
  cs.insert(1, payload(0xAA));
  const auto got = cs.lookup(1);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, payload(0xAA));
  EXPECT_FALSE(cs.lookup(2));
  EXPECT_EQ(cs.hits(), 1u);
  EXPECT_EQ(cs.misses(), 1u);
}

TEST(ContentStore, LruEviction) {
  ContentStore cs(2);
  cs.insert(1, payload(1));
  cs.insert(2, payload(2));
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(cs.lookup(1));
  cs.insert(3, payload(3));

  EXPECT_TRUE(cs.contains(1));
  EXPECT_FALSE(cs.contains(2));
  EXPECT_TRUE(cs.contains(3));
  EXPECT_EQ(cs.size(), 2u);
}

TEST(ContentStore, ReinsertUpdatesPayloadAndRecency) {
  ContentStore cs(2);
  cs.insert(1, payload(1));
  cs.insert(2, payload(2));
  cs.insert(1, payload(9));  // update, 1 becomes MRU
  cs.insert(3, payload(3));  // evicts 2

  EXPECT_EQ(cs.lookup(1).value(), payload(9));
  EXPECT_FALSE(cs.contains(2));
}

TEST(ContentStore, EraseAndClear) {
  ContentStore cs(4);
  cs.insert(1, payload(1));
  cs.insert(2, payload(2));
  EXPECT_TRUE(cs.erase(1));
  EXPECT_FALSE(cs.erase(1));
  EXPECT_EQ(cs.size(), 1u);
  cs.clear();
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_FALSE(cs.contains(2));
}

TEST(ContentStore, ZeroCapacityDisables) {
  ContentStore cs(0);
  cs.insert(1, payload(1));
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_FALSE(cs.lookup(1));
}

}  // namespace
}  // namespace dip::pit
