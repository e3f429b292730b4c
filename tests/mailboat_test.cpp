// Tests for Mailboat: unit behavior over the modeled file system,
// refinement checking with crashes, and the §9.5 bug suite.
#include <gtest/gtest.h>

#include "src/goose/heap.h"
#include "src/goosefs/goosefs.h"
#include "src/mailboat/mail_harness.h"
#include "src/mailboat/mail_spec.h"
#include "src/mailboat/mailboat.h"
#include "src/refine/explorer.h"
#include "tests/sim_util.h"

namespace perennial::mailboat {
namespace {

using perennial::testing::SimRun;
using perennial::testing::SimRunVoid;
using proc::Task;
using refine::Explorer;
using refine::ExplorerOptions;
using refine::Report;

class MailboatTest : public ::testing::Test {
 protected:
  MailboatTest()
      : fs_(&world_, Mailboat::DirLayout(2)),
        mail_(&world_, &fs_, Mailboat::Options{2, 4, 4, 99}) {}

  goose::World world_;
  goosefs::GooseFs fs_;
  Mailboat mail_;
};

TEST_F(MailboatTest, DeliverThenPickupSeesMessage) {
  auto body = [&]() -> Task<std::vector<Message>> {
    std::string id = (co_await mail_.Deliver(0, goosefs::BytesOfString("hello"))).value();
    EXPECT_FALSE(id.empty());
    std::vector<Message> messages = (co_await mail_.Pickup(0)).value();
    co_await mail_.Unlock(0);
    co_return messages;
  };
  std::vector<Message> messages = SimRun(body());
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].contents, "hello");
}

TEST_F(MailboatTest, MessageLargerThanReadSizeRoundTrips) {
  // read_size is 4; a 11-byte message takes three reads (the §9.5 bug
  // regression: the fixed loop must advance the offset).
  auto body = [&]() -> Task<std::string> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("hello world"));
    std::vector<Message> messages = (co_await mail_.Pickup(0)).value();
    co_await mail_.Unlock(0);
    co_return messages.at(0).contents;
  };
  EXPECT_EQ(SimRun(body()), "hello world");
}

TEST_F(MailboatTest, MessageExactlyReadSizeRoundTrips) {
  auto body = [&]() -> Task<std::string> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("abcd"));  // == read_size
    std::vector<Message> messages = (co_await mail_.Pickup(0)).value();
    co_await mail_.Unlock(0);
    co_return messages.at(0).contents;
  };
  EXPECT_EQ(SimRun(body()), "abcd");
}

TEST_F(MailboatTest, EmptyMessageRoundTrips) {
  auto body = [&]() -> Task<uint64_t> {
    (void)co_await mail_.Deliver(0, goosefs::Bytes{});
    std::vector<Message> messages = (co_await mail_.Pickup(0)).value();
    co_await mail_.Unlock(0);
    EXPECT_TRUE(messages.at(0).contents.empty());
    co_return messages.size();
  };
  EXPECT_EQ(SimRun(body()), 1u);
}

TEST_F(MailboatTest, DeleteRemovesMessage) {
  auto body = [&]() -> Task<uint64_t> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("bye"));
    std::vector<Message> messages = (co_await mail_.Pickup(0)).value();
    (void)co_await mail_.Delete(0, messages.at(0).id);
    co_await mail_.Unlock(0);
    std::vector<Message> after = (co_await mail_.Pickup(0)).value();
    co_await mail_.Unlock(0);
    co_return after.size();
  };
  EXPECT_EQ(SimRun(body()), 0u);
}

TEST_F(MailboatTest, MailboxesAreIndependent) {
  auto body = [&]() -> Task<uint64_t> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("for user 0"));
    std::vector<Message> messages = (co_await mail_.Pickup(1)).value();
    co_await mail_.Unlock(1);
    co_return messages.size();
  };
  EXPECT_EQ(SimRun(body()), 0u);
}

TEST_F(MailboatTest, DeliverLeavesNoSpoolResidue) {
  auto body = [&]() -> Task<void> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("x"));
  };
  SimRunVoid(body());
  EXPECT_TRUE(fs_.PeekNames("spool").empty());
}

TEST_F(MailboatTest, RecoverCleansSpoolAndKeepsMail) {
  auto deliver = [&]() -> Task<void> {
    (void)co_await mail_.Deliver(0, goosefs::BytesOfString("keep me"));
  };
  SimRunVoid(deliver());
  // Simulate a crashed delivery: a stranded spool file.
  auto strand = [&]() -> Task<void> {
    goosefs::Fd fd = (co_await fs_.Create("spool", "tmp-junk")).value();
    (void)co_await fs_.Append(fd, goosefs::BytesOfString("partial"));
    // fd deliberately left open: the crash drops it.
  };
  SimRunVoid(strand());
  world_.Crash();
  auto recover = [&]() -> Task<void> { co_await mail_.Recover(); };
  SimRunVoid(recover());
  EXPECT_TRUE(fs_.PeekNames("spool").empty());
  auto pickup = [&]() -> Task<uint64_t> {
    std::vector<Message> messages = (co_await mail_.Pickup(0)).value();
    co_await mail_.Unlock(0);
    co_return messages.size();
  };
  EXPECT_EQ(SimRun(pickup()), 1u);
}

TEST_F(MailboatTest, DeleteOfUnknownIdIsUb) {
  auto body = [&]() -> Task<void> {
    (void)co_await mail_.Pickup(0);
    (void)co_await mail_.Delete(0, "msg-nonexistent");
  };
  EXPECT_THROW(SimRunVoid(body()), UbViolation);
}

TEST_F(MailboatTest, DeleteWithoutPickupIsUb) {
  // The lower-bound lease discipline (§8.3): deleting without the lease
  // taken by Pickup is a capability violation.
  auto body = [&]() -> Task<void> {
    std::string id = (co_await mail_.Deliver(0, goosefs::BytesOfString("x"))).value();
    (void)co_await mail_.Delete(0, id);  // no Pickup first
  };
  EXPECT_THROW(SimRunVoid(body()), UbViolation);
}

TEST_F(MailboatTest, DeleteOfMessageDeliveredAfterPickupIsUb) {
  // A message delivered after the listing is not in the lower bound, so the
  // lock holder may not delete it even though the file exists.
  auto body = [&]() -> Task<void> {
    (void)co_await mail_.Pickup(0);
    std::string id = (co_await mail_.Deliver(0, goosefs::BytesOfString("late"))).value();
    (void)co_await mail_.Delete(0, id);
  };
  EXPECT_THROW(SimRunVoid(body()), UbViolation);
}

TEST(MailboatIds, CollidingIdsRetryAndBothDeliver) {
  // Seeded RNG with a tiny id space is impractical; instead deliver many
  // messages and check they all arrive with distinct ids.
  goose::World world;
  goosefs::GooseFs fs(&world, Mailboat::DirLayout(1));
  Mailboat mail(&world, &fs, Mailboat::Options{1, 4, 4, 7});
  auto body = [&]() -> Task<uint64_t> {
    for (int i = 0; i < 8; ++i) {
      (void)co_await mail.Deliver(0, goosefs::BytesOfString("m" + std::to_string(i)));
    }
    std::vector<Message> messages = (co_await mail.Pickup(0)).value();
    co_await mail.Unlock(0);
    co_return messages.size();
  };
  EXPECT_EQ(SimRun(body()), 8u);
}

// ---------- Refinement checks ----------

TEST(MailCheck, ConcurrentDeliverAndPickupRefines) {
  MailHarnessOptions options;
  options.num_users = 1;
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "a"}},
      {{MailAction::Kind::kPickupUnlock, 0, ""}},
  };
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_FALSE(report.truncated);
}

TEST(MailCheck, TwoDeliverersRefine) {
  MailHarnessOptions options;
  options.num_users = 1;
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "a"}},
      {{MailAction::Kind::kDeliver, 0, "b"}},
  };
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(MailCheck, DeliverVsPickupDeleteRefines) {
  MailHarnessOptions options;
  options.num_users = 1;
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "a"}},
      {{MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
  };
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(MailCheck, CrashDuringRecoveryRefines) {
  MailHarnessOptions options;
  options.num_users = 1;
  options.client_scripts = {{{MailAction::Kind::kDeliver, 0, "a"}}};
  ExplorerOptions opts;
  opts.max_crashes = 2;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(MailCheck, TwoUsersRandomised) {
  MailHarnessOptions options;
  options.num_users = 2;
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "a"}, {MailAction::Kind::kDeliver, 1, "b"}},
      {{MailAction::Kind::kPickupDeleteAllUnlock, 0, ""}},
      {{MailAction::Kind::kPickupUnlock, 1, ""}},
  };
  ExplorerOptions opts;
  opts.mode = ExplorerOptions::Mode::kPct;
  opts.random_runs = 150;
  opts.seed = 3;
  opts.max_crashes = 1;
  Explorer<MailSpec> ex(MailSpec{2}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(MailDeferred, SyncedDeliveryRefinesUnderDeferredDurability) {
  // The deferred-durability extension: with fsync-before-link, delivery
  // stays crash-safe even when file data is buffered.
  MailHarnessOptions options;
  options.num_users = 1;
  options.deferred_durability = true;
  options.sync_on_deliver = true;
  options.client_scripts = {{{MailAction::Kind::kDeliver, 0, "ab"}}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(MailDeferred, MissingSyncLosesLinkedMailContents) {
  // The classic zero-length-mail bug: link the file, crash before the data
  // is written back — the mailbox has the name but not the message.
  MailHarnessOptions options;
  options.num_users = 1;
  options.deferred_durability = true;
  options.sync_on_deliver = false;  // the bug
  options.client_scripts = {{{MailAction::Kind::kDeliver, 0, "ab"}}};
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

// ---------- The §9.5 bug suite ----------

TEST(MailMutation, Pickup512LoopIsCaughtAsNontermination) {
  MailHarnessOptions options;
  options.num_users = 1;
  options.read_size = 2;
  // Contents of exactly read_size bytes trigger the infinite re-read.
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "xy"}, {MailAction::Kind::kPickupUnlock, 0, ""}}};
  options.mutations.pickup_512_loop = true;
  options.observe_mailboxes = false;
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_steps_per_run = 300;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "step-bound");
}

TEST(MailMutation, ShortMessagesHideThe512Bug) {
  // The paper found the bug only for messages over 512 bytes; below the
  // read size the buggy loop still terminates — and the checker agrees.
  MailHarnessOptions options;
  options.num_users = 1;
  options.read_size = 4;
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "xy"}, {MailAction::Kind::kPickupUnlock, 0, ""}}};
  options.mutations.pickup_512_loop = true;
  options.observe_mailboxes = false;
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(MailMutation, InPlaceDeliveryExposesPartialMessage) {
  MailHarnessOptions options;
  options.num_users = 1;
  options.chunk_size = 1;  // several appends per message
  options.client_scripts = {
      {{MailAction::Kind::kDeliver, 0, "abc"}},
      {{MailAction::Kind::kPickupUnlock, 0, ""}},
  };
  options.mutations.deliver_in_place = true;
  ExplorerOptions opts;
  opts.max_crashes = 0;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

TEST(MailMutation, RecoveryDeletingMailIsCaught) {
  MailHarnessOptions options;
  options.num_users = 1;
  options.client_scripts = {{{MailAction::Kind::kDeliver, 0, "precious"}}};
  options.mutations.recovery_deletes_mail = true;
  ExplorerOptions opts;
  opts.max_crashes = 1;
  Explorer<MailSpec> ex(MailSpec{1}, [&] { return MakeMailInstance(options); }, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "non-linearizable");
}

TEST(MailMutation, CallerMutatingSliceDuringDeliverIsUb) {
  // §8.3: Deliver's atomicity relies on the caller not mutating the
  // message buffer; the Goose heap detects the race under some schedule.
  auto factory = [] {
    struct Bundle {
      goose::World world;
      std::unique_ptr<goose::Heap> heap;
      std::unique_ptr<goosefs::GooseFs> fs;
      std::unique_ptr<Mailboat> mail;
      goose::Slice<uint8_t> buffer;
    };
    auto bundle = std::make_shared<Bundle>();
    bundle->heap = std::make_unique<goose::Heap>(&bundle->world);
    bundle->fs = std::make_unique<goosefs::GooseFs>(&bundle->world, Mailboat::DirLayout(1));
    bundle->mail = std::make_unique<Mailboat>(&bundle->world, bundle->fs.get(),
                                              Mailboat::Options{1, 2, 2, 5});
    bundle->buffer = bundle->heap->SliceFromVector<uint8_t>({'a', 'b', 'c', 'd'});

    refine::Instance<MailSpec> inst;
    inst.keep_alive = bundle;
    inst.world = &bundle->world;
    Bundle* b = bundle.get();
    inst.run_op = [b](int, uint64_t, MailSpec::Op op) -> proc::Task<MailSpec::Ret> {
      MailSpec::Ret ret;
      if (op.kind == MailSpec::Kind::kDeliver) {
        // Deliver reading through the shared slice.
        Result<std::string> id = co_await b->mail->DeliverChunked(
            0, b->buffer.size(), [b](uint64_t off, uint64_t n) -> proc::Task<goosefs::Bytes> {
              co_return co_await b->heap->SliceCopyOut(b->buffer, off, off + n);
            });
        ret.id = id.value();
      } else if (op.kind == MailSpec::Kind::kUnlock) {
        // Abuse kUnlock as "the caller scribbles on the buffer".
        co_await b->heap->SliceSet<uint8_t>(b->buffer, 1, 'Z');
      }
      co_return ret;
    };
    inst.client_ops = {{MailSpec::MakeDeliver(0, "abcd")}, {MailSpec::MakeUnlock(0)}};
    return inst;
  };
  ExplorerOptions opts;
  opts.max_crashes = 0;
  opts.max_violations = 1;
  Explorer<MailSpec> ex(MailSpec{1}, factory, opts);
  Report report = ex.Run();
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.violations[0].kind, "undefined-behavior");
}

}  // namespace
}  // namespace perennial::mailboat
