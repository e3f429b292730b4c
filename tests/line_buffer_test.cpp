// Unit tests for the zero-copy receive-path line carver (tier 1).
//
// LineBuffer's contract has sharp edges the loopback protocol tests only
// exercise probabilistically: terminators split across reads, pipelined
// batches spanning a buffer growth, compaction correctness while a line is
// checked out, and the overlong-line flag. This drives them directly.
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/netserv/line_buffer.h"

namespace perennial::netserv {
namespace {

constexpr size_t kMax = 64 * 1024;

// Feeds `data` into the buffer as one loop-thread write (PrepareWrite /
// memcpy / CommitWrite / CarveLines), returning the carve count.
size_t Feed(LineBuffer* lb, const std::string& data, bool* overlong,
            size_t max_line = kMax, size_t max_bytes = kMax + 8 * 1024) {
  size_t fed = 0;
  size_t carved = 0;
  *overlong = false;
  while (fed < data.size()) {
    size_t room = lb->PrepareWrite(4096, max_bytes);
    if (room == 0) {
      ADD_FAILURE() << "buffer full with " << (data.size() - fed) << " bytes left";
      break;
    }
    size_t n = std::min(room, data.size() - fed);
    std::memcpy(lb->write_ptr(), data.data() + fed, n);
    lb->CommitWrite(n);
    bool over = false;
    carved += lb->CarveLines(max_line, &over);
    *overlong = *overlong || over;
    fed += n;
  }
  return carved;
}

std::vector<std::string> DrainLines(LineBuffer* lb) {
  std::vector<std::string> out;
  std::string_view line;
  while (lb->NextLine(&line)) {
    out.emplace_back(line);
  }
  return out;
}

TEST(LineBufferTest, CarvesCrlfAndBareLf) {
  LineBuffer lb;
  bool overlong = false;
  EXPECT_EQ(Feed(&lb, "HELO a\r\nNOOP\nRSET\r\n", &overlong), 3u);
  EXPECT_FALSE(overlong);
  EXPECT_EQ(DrainLines(&lb), (std::vector<std::string>{"HELO a", "NOOP", "RSET"}));
}

TEST(LineBufferTest, CrlfSplitAcrossReads) {
  LineBuffer lb;
  bool overlong = false;
  // The '\r' arrives in one read, the '\n' in the next: the line must come
  // out once, without the '\r'.
  EXPECT_EQ(Feed(&lb, "HELO test\r", &overlong), 0u);
  EXPECT_EQ(lb.pending_partial(), 10u);
  EXPECT_EQ(Feed(&lb, "\n", &overlong), 1u);
  EXPECT_EQ(DrainLines(&lb), (std::vector<std::string>{"HELO test"}));

  // Byte-at-a-time delivery of a whole command.
  for (char c : std::string("NOOP\r\n")) {
    Feed(&lb, std::string(1, c), &overlong);
  }
  EXPECT_EQ(DrainLines(&lb), (std::vector<std::string>{"NOOP"}));
}

TEST(LineBufferTest, EmptyLines) {
  LineBuffer lb;
  bool overlong = false;
  EXPECT_EQ(Feed(&lb, "\r\n\n\r\n", &overlong), 3u);
  EXPECT_EQ(DrainLines(&lb), (std::vector<std::string>{"", "", ""}));
  // A lone '\r' is content until its '\n' arrives.
  EXPECT_EQ(Feed(&lb, "\r", &overlong), 0u);
  EXPECT_EQ(Feed(&lb, "\r\n", &overlong), 1u);
  std::string_view line;
  ASSERT_TRUE(lb.NextLine(&line));
  EXPECT_EQ(line, "\r");  // only ONE trailing \r is a terminator
}

TEST(LineBufferTest, PipelinedBatchSpansBufferGrowth) {
  LineBuffer lb;
  // Far past the 4 KiB initial allocation in one burst: growth happens
  // mid-batch while earlier lines are still queued (growth is deferred to
  // idle moments, so drain interleaves with feeding).
  std::vector<std::string> want;
  std::string batch;
  for (int i = 0; i < 800; ++i) {
    want.push_back("APPEND line number " + std::to_string(i));
    batch += want.back() + "\r\n";
  }
  size_t carved = 0;
  size_t fed = 0;
  std::vector<std::string> got;
  while (fed < batch.size()) {
    size_t room = lb.PrepareWrite(4096, kMax + 8 * 1024);
    if (room == 0) {
      // Executor's turn: drain, then the loop may compact.
      for (auto& line : DrainLines(&lb)) {
        got.push_back(std::move(line));
      }
      continue;
    }
    size_t n = std::min(room, batch.size() - fed);
    std::memcpy(lb.write_ptr(), batch.data() + fed, n);
    lb.CommitWrite(n);
    bool over = false;
    carved += lb.CarveLines(kMax, &over);
    EXPECT_FALSE(over);
    fed += n;
  }
  for (auto& line : DrainLines(&lb)) {
    got.push_back(std::move(line));
  }
  EXPECT_EQ(carved, want.size());
  EXPECT_EQ(got, want);
}

TEST(LineBufferTest, CheckedOutViewSurvivesTailAppends) {
  LineBuffer lb;
  bool overlong = false;
  Feed(&lb, "FIRST command\r\n", &overlong);
  std::string_view line;
  ASSERT_TRUE(lb.NextLine(&line));
  EXPECT_EQ(line, "FIRST command");
  // While the executor holds the view, the loop keeps appending (growth
  // and compaction are forbidden — PrepareWrite must not move memory).
  const char* before = line.data();
  Feed(&lb, "SECOND\r\n", &overlong);
  EXPECT_EQ(line.data(), before);
  EXPECT_EQ(line, "FIRST command");
  ASSERT_TRUE(lb.NextLine(&line));
  EXPECT_EQ(line, "SECOND");
  lb.FinishLine();
}

TEST(LineBufferTest, CompactionPreservesPartialTail) {
  LineBuffer lb;
  bool overlong = false;
  // Fill most of a small buffer with consumed lines plus a partial tail,
  // then force a compaction and finish the partial line.
  Feed(&lb, "AAAA\r\nBBBB\r\nPART", &overlong);
  EXPECT_EQ(DrainLines(&lb), (std::vector<std::string>{"AAAA", "BBBB"}));
  EXPECT_EQ(lb.pending_partial(), 4u);
  // idle() now: the next PrepareWrite may slide "PART" to the front.
  (void)lb.PrepareWrite(4096, kMax);
  EXPECT_EQ(lb.pending_partial(), 4u);
  Feed(&lb, "IAL\r\n", &overlong);
  EXPECT_EQ(DrainLines(&lb), (std::vector<std::string>{"PARTIAL"}));
}

TEST(LineBufferTest, BackpressureAtCapAndResume) {
  LineBuffer lb;
  bool overlong = false;
  constexpr size_t kCap = 8 * 1024;
  // Fill with unconsumed lines: growth is only legal while idle (no
  // queued or checked-out line), so PrepareWrite must stop at 0 — at the
  // current allocation, never past the cap — rather than move memory
  // under the queued ranges.
  std::string batch;
  while (batch.size() < kCap) {
    batch += "0123456789ABCDEF\r\n";
  }
  size_t fed = 0;
  while (fed < batch.size()) {
    size_t room = lb.PrepareWrite(1024, kCap);
    if (room == 0) {
      break;
    }
    size_t n = std::min(room, batch.size() - fed);
    std::memcpy(lb.write_ptr(), batch.data() + fed, n);
    lb.CommitWrite(n);
    bool over = false;
    lb.CarveLines(/*max_line=*/kCap - 1024, &over);
    EXPECT_FALSE(over);
    fed += n;
  }
  EXPECT_LE(lb.capacity(), kCap);
  EXPECT_EQ(lb.PrepareWrite(1024, kCap), 0u) << "full with queued lines";
  // Drain (the executor), then the loop resumes: compaction/growth frees
  // room again, and the rest of the batch still fits under the cap.
  size_t drained = DrainLines(&lb).size();
  EXPECT_GT(drained, 100u);
  EXPECT_GT(lb.PrepareWrite(1024, kCap), 0u);
  size_t carved = Feed(&lb, batch.substr(fed), &overlong, /*max_line=*/kCap - 1024,
                       /*max_bytes=*/kCap);
  EXPECT_FALSE(overlong);
  EXPECT_EQ(DrainLines(&lb).size(), carved);
  EXPECT_EQ(drained + carved, batch.size() / 18) << "every line came out exactly once";
  EXPECT_LE(lb.capacity(), kCap);
}

TEST(LineBufferTest, OverlongDetection) {
  LineBuffer lb;
  bool overlong = false;
  // An unterminated run past max_line trips the flag...
  Feed(&lb, std::string(2048, 'x'), &overlong, /*max_line=*/1024, /*max_bytes=*/4096);
  EXPECT_TRUE(overlong);
  // ...while the same bytes with terminators do not.
  lb.Clear();
  std::string lines;
  for (int i = 0; i < 8; ++i) {
    lines += std::string(256, 'y') + "\r\n";
  }
  EXPECT_EQ(Feed(&lb, lines, &overlong, /*max_line=*/1024, /*max_bytes=*/4096), 8u);
  EXPECT_FALSE(overlong);
}

TEST(LineBufferTest, AdoptAndReleaseStorageRoundTrip) {
  LineBuffer a;
  bool overlong = false;
  Feed(&a, "SOME line\r\ntrailing partial", &overlong);
  EXPECT_EQ(DrainLines(&a), (std::vector<std::string>{"SOME line"}));
  std::vector<char> storage = a.ReleaseStorage();
  EXPECT_GT(storage.size(), 0u);

  // A new connection adopting the storage must see none of the old bytes.
  LineBuffer b;
  b.AdoptStorage(std::move(storage));
  EXPECT_EQ(b.pending_partial(), 0u);
  EXPECT_FALSE(b.has_line());
  Feed(&b, "FRESH\r\n", &overlong);
  EXPECT_EQ(DrainLines(&b), (std::vector<std::string>{"FRESH"}));
}

}  // namespace
}  // namespace perennial::netserv
