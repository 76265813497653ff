/**
 * @file
 * SweepJournal unit tests: CRC correctness, round trips across
 * instances (the resume path), crash-shaped corruption (torn tails,
 * flipped bytes), foreign files, and the fingerprint guard.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "exec/journal.hpp"

namespace mimoarch::exec {
namespace {

class JournalTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Per-process name: ctest runs the copies of this suite
        // concurrently.
        path_ = ::testing::TempDir() + "journal_test_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".journal";
        std::remove(path_.c_str());
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }

    std::vector<unsigned char>
    payload(const std::string &text) const
    {
        return std::vector<unsigned char>(text.begin(), text.end());
    }

    std::string
    readAll() const
    {
        std::ifstream in(path_, std::ios::binary);
        std::string out((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        return out;
    }

    void
    writeAll(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    std::string path_;
};

TEST(Crc32, MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32 check: crc32("123456789") = 0xCBF43926.
    const char data[] = "123456789";
    EXPECT_EQ(crc32(data, 9), 0xCBF43926u);
    EXPECT_EQ(crc32(data, 0), 0u);
}

TEST_F(JournalTest, FindOnAFreshJournalIsEmpty)
{
    SweepJournal j(path_, 42);
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.find(7), nullptr);
}

TEST_F(JournalTest, AppendedRecordsSurviveReopen)
{
    const auto a = payload("result-a");
    const auto b = payload("result-b with longer payload");
    {
        SweepJournal j(path_, 42);
        j.append(1, a.data(), a.size());
        j.append(2, b.data(), b.size());
        EXPECT_EQ(j.size(), 2u);
    }
    SweepJournal j(path_, 42);
    ASSERT_EQ(j.size(), 2u);
    ASSERT_NE(j.find(1), nullptr);
    ASSERT_NE(j.find(2), nullptr);
    EXPECT_EQ(*j.find(1), a);
    EXPECT_EQ(*j.find(2), b);
    EXPECT_EQ(j.find(3), nullptr);
}

TEST_F(JournalTest, RepeatedKeyOverwrites)
{
    const auto first = payload("first");
    const auto second = payload("second");
    SweepJournal j(path_, 42);
    j.append(9, first.data(), first.size());
    j.append(9, second.data(), second.size());
    EXPECT_EQ(j.size(), 1u);
    EXPECT_EQ(*j.find(9), second);
}

TEST_F(JournalTest, EmptyPayloadRoundTrips)
{
    {
        SweepJournal j(path_, 42);
        j.append(5, nullptr, 0);
    }
    SweepJournal j(path_, 42);
    ASSERT_NE(j.find(5), nullptr);
    EXPECT_TRUE(j.find(5)->empty());
}

TEST_F(JournalTest, NoTmpFileLeftBehind)
{
    const auto a = payload("x");
    SweepJournal j(path_, 42);
    j.append(1, a.data(), a.size());
    std::ifstream tmp(path_ + ".tmp");
    EXPECT_FALSE(tmp.good())
        << "atomic persist must rename the tmp file away";
}

TEST_F(JournalTest, TornTailIsDiscardedKeepingTheValidPrefix)
{
    const auto a = payload("kept");
    const auto b = payload("torn");
    {
        SweepJournal j(path_, 42);
        j.append(1, a.data(), a.size());
        j.append(2, b.data(), b.size());
    }
    // Simulate a kill mid-write by truncating into the last record.
    const std::string bytes = readAll();
    writeAll(bytes.substr(0, bytes.size() - 3));

    SweepJournal j(path_, 42);
    EXPECT_EQ(j.size(), 1u);
    ASSERT_NE(j.find(1), nullptr);
    EXPECT_EQ(*j.find(1), a);
    EXPECT_EQ(j.find(2), nullptr);
}

TEST_F(JournalTest, CorruptPayloadByteFailsTheCrcAndIsDropped)
{
    const auto a = payload("to-be-corrupted");
    {
        SweepJournal j(path_, 42);
        j.append(1, a.data(), a.size());
    }
    std::string bytes = readAll();
    bytes[bytes.size() - 2] ^= 0x40; // Flip a payload bit.
    writeAll(bytes);

    SweepJournal j(path_, 42);
    EXPECT_EQ(j.size(), 0u);
    EXPECT_EQ(j.find(1), nullptr);
}

TEST_F(JournalTest, ForeignFileStartsFresh)
{
    writeAll("this is not a journal at all, but it is long enough");
    SweepJournal j(path_, 42);
    EXPECT_EQ(j.size(), 0u);
    // And the journal remains usable.
    const auto a = payload("new");
    j.append(1, a.data(), a.size());
    EXPECT_EQ(j.size(), 1u);
}

TEST_F(JournalTest, FingerprintMismatchIsFatal)
{
    const auto a = payload("x");
    {
        SweepJournal j(path_, 42);
        j.append(1, a.data(), a.size());
    }
    // Resuming the same journal under a different experiment config
    // must refuse rather than splice foreign results.
    EXPECT_EXIT({ SweepJournal j(path_, 43); },
                ::testing::ExitedWithCode(1), "fingerprint");
}

} // namespace
} // namespace mimoarch::exec
