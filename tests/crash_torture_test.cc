#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/database.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "exec/hash_agg.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "gtest/gtest.h"
#include "service/memory_governor.h"
#include "service/session.h"
#include "storage/buffer_manager.h"
#include "txn/transaction_manager.h"
#include "stripe_decode.h"

namespace vwise {
namespace {

// Crash-recovery torture suite. A seeded workload of PDT updates and
// checkpoints runs against a real database directory while failpoints crash
// the process (SimulatedCrash) at chosen points in the commit and checkpoint
// sequences; the directory is then reopened and its recovered contents are
// compared bit-for-bit against an in-memory shadow oracle.
//
// Two modes:
//  - a deterministic sweep that crashes at *every* armed point in the
//    commit/checkpoint protocol, one database per site;
//  - a randomized monkey (VWISE_TORTURE_SEED / VWISE_TORTURE_ITERS) that
//    interleaves transactions, checkpoints, reads, faults and crashes.
// On a verification failure the database directory is copied to
// VWISE_FAIL_ARTIFACT_DIR (if set) together with the seed for replay.

using Rows = std::vector<std::pair<int64_t, int64_t>>;

Config TortureConfig() {
  Config cfg;
  cfg.stripe_rows = 64;          // several stripes even for small tables
  cfg.buffer_pool_bytes = 1 << 20;
  cfg.wal_sync_on_commit = true; // commit durability is what's under test
  return cfg;
}

struct Db {
  std::unique_ptr<IoDevice> device;
  std::unique_ptr<BufferManager> buffers;
  std::unique_ptr<TransactionManager> mgr;
};

Status OpenDb(const std::string& dir, const Config& cfg, Db* db) {
  db->mgr.reset();
  db->buffers = std::make_unique<BufferManager>(cfg.buffer_pool_bytes);
  if (!db->device) db->device = std::make_unique<IoDevice>(cfg);
  auto mgr = TransactionManager::Open(dir, cfg, db->device.get(),
                                      db->buffers.get());
  if (!mgr.ok()) return mgr.status();
  db->mgr = std::move(*mgr);
  return Status::OK();
}

// Reads the full visible contents of a snapshot (two int64 columns) through
// the stable file + PDT merge path.
Status MaterializeSnapshot(const TableSnapshot& snap, Rows* out) {
  TableFile* tf = snap.stable.get();
  Rows stable;
  stable.reserve(tf->row_count());
  for (size_t s = 0; s < tf->stripe_count(); s++) {
    Vector id_col, val_col;
    Status st = test::DecodeStripeColumn(tf, s, 0, &id_col);
    if (st.ok()) st = test::DecodeStripeColumn(tf, s, 1, &val_col);
    if (!st.ok()) return st;
    for (uint32_t i = 0; i < tf->stripe(s).rows; i++) {
      stable.emplace_back(id_col.Data<int64_t>()[i],
                          val_col.Data<int64_t>()[i]);
    }
  }
  out->clear();
  Pdt empty;
  const Pdt* pdt = snap.deltas ? snap.deltas.get() : &empty;
  Pdt::MergeScanner scanner(*pdt, tf->row_count());
  Pdt::MergeEvent ev;
  while (scanner.Next(&ev, 4096)) {
    switch (ev.kind) {
      case Pdt::MergeEvent::kStableRun:
        for (uint64_t i = 0; i < ev.count; i++) {
          out->push_back(stable[ev.sid + i]);
        }
        break;
      case Pdt::MergeEvent::kModifiedRow: {
        auto row = stable[ev.sid];
        for (const auto& [col, v] : ev.rec->mods) {
          (col == 0 ? row.first : row.second) = v.AsInt();
        }
        out->push_back(row);
        break;
      }
      case Pdt::MergeEvent::kDeletedRow:
        break;
      case Pdt::MergeEvent::kInsertedRow:
        out->push_back({ev.rec->row[0].AsInt(), ev.rec->row[1].AsInt()});
        break;
    }
  }
  return Status::OK();
}

// Reads the latest visible contents of `table`.
Status Materialize(TransactionManager* mgr, Rows* out,
                   const std::string& table = "t") {
  auto snap = mgr->GetSnapshot(table);
  if (!snap.ok()) return snap.status();
  return MaterializeSnapshot(*snap, out);
}

std::string Describe(const Rows& rows, size_t limit = 6) {
  std::string s = std::to_string(rows.size()) + " rows [";
  for (size_t i = 0; i < rows.size() && i < limit; i++) {
    s += "(";
    s += std::to_string(rows[i].first);
    s += ",";
    s += std::to_string(rows[i].second);
    s += ")";
  }
  if (rows.size() > limit) s += "...";
  return s + "]";
}

void DumpArtifacts(const std::string& dbdir, const std::string& label,
                   const std::string& info) {
  const char* art = std::getenv("VWISE_FAIL_ARTIFACT_DIR");
  if (art == nullptr || art[0] == '\0') return;
  std::error_code ec;
  std::string dst = std::string(art) + "/" + label;
  std::filesystem::remove_all(dst, ec);
  std::filesystem::create_directories(dst, ec);
  std::filesystem::copy(dbdir, dst + "/db",
                        std::filesystem::copy_options::recursive, ec);
  std::ofstream(dst + "/info.txt") << info << "\n";
}

// --- Workload ---------------------------------------------------------------

struct Op {
  enum Kind { kAppend, kModify, kDelete } kind;
  uint64_t rid = 0;
  int64_t id = 0;
  int64_t value = 0;
};

std::vector<Op> MakePlan(Rng* rng, size_t shadow_size, int64_t* id_counter) {
  std::vector<Op> plan;
  size_t size = shadow_size;
  int n = 1 + static_cast<int>(rng->Next() % 3);
  for (int i = 0; i < n; i++) {
    Op op;
    int kind = size == 0 ? 0 : static_cast<int>(rng->Next() % 3);
    if (kind == 0) {
      op.kind = Op::kAppend;
      op.id = (*id_counter)++;
      op.value = static_cast<int64_t>(rng->Next() % 1000000);
      size++;
    } else if (kind == 1) {
      op.kind = Op::kModify;
      op.rid = rng->Next() % size;
      op.value = static_cast<int64_t>(rng->Next() % 1000000);
    } else {
      op.kind = Op::kDelete;
      op.rid = rng->Next() % size;
      size--;
    }
    plan.push_back(op);
  }
  return plan;
}

void ApplyToShadow(Rows* rows, const std::vector<Op>& plan) {
  for (const Op& op : plan) {
    switch (op.kind) {
      case Op::kAppend:
        rows->push_back({op.id, op.value});
        break;
      case Op::kModify:
        (*rows)[op.rid].second = op.value;
        break;
      case Op::kDelete:
        rows->erase(rows->begin() + static_cast<ptrdiff_t>(op.rid));
        break;
    }
  }
}

// May throw SimulatedCrash from inside Commit when a crash failpoint is
// armed on the commit path.
Status ApplyToDb(TransactionManager* mgr, const std::vector<Op>& plan) {
  auto txn = mgr->Begin();
  for (const Op& op : plan) {
    Status s;
    switch (op.kind) {
      case Op::kAppend:
        s = txn->Append("t", {Value::Int(op.id), Value::Int(op.value)});
        break;
      case Op::kModify:
        s = txn->Modify("t", op.rid, 1, Value::Int(op.value));
        break;
      case Op::kDelete:
        s = txn->Delete("t", op.rid);
        break;
    }
    if (!s.ok()) {
      mgr->Abort(txn.get());
      return s;
    }
  }
  return mgr->Commit(txn.get());
}

// Creates `table` with the two int64 columns (id, val).
Status CreateTwoColumnTable(TransactionManager* mgr, const std::string& table) {
  TableSchema t(table, {ColumnDef("id", DataType::Int64()),
                        ColumnDef("val", DataType::Int64())});
  return mgr->CreateTable(t, ColumnGroups::Dsm(2));
}

// Bulk-loads `n` rows (id=i, val=i) into `table`.
Status LoadRows(TransactionManager* mgr, const std::string& table, int n) {
  return mgr->BulkLoad(table, [n](TableWriter* w) -> Status {
    for (int i = 0; i < n; i++) {
      Status st = w->AppendRow({Value::Int(i), Value::Int(i)});
      if (!st.ok()) return st;
    }
    return Status::OK();
  });
}

Rows LoadedRows(int n) {
  Rows rows;
  for (int i = 0; i < n; i++) rows.push_back({i, i});
  return rows;
}

// Creates table "t", bulk-loads `n` rows (id=i, val=i), seeds the shadow.
Status SeedDb(TransactionManager* mgr, int n, Rows* shadow,
              int64_t* id_counter) {
  Status s = CreateTwoColumnTable(mgr, "t");
  if (!s.ok()) return s;
  s = LoadRows(mgr, "t", n);
  if (!s.ok()) return s;
  *shadow = LoadedRows(n);
  *id_counter = n;
  return Status::OK();
}

class CrashTortureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DisarmAll();
    dir_ = ::testing::TempDir() + "/vwise_torture_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    failpoint::DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
};

// --- Deterministic crash-point sweep ----------------------------------------

struct CrashSite {
  const char* spec;    // failpoint arm spec, always a crash mode
  bool via_commit;     // trigger with a commit (else see via_bulk_load)
  // Trigger with a bulk load of a second, freshly created table "b" (else
  // with a checkpoint).
  bool via_bulk_load = false;
};

// Every armed point in the commit, checkpoint and bulk-load sequences.
// Commit crashes may lose or keep the in-flight transaction (both are
// consistent states); checkpoint crashes must be invisible — a checkpoint
// only reorganizes; a bulk-load crash leaves "b" empty or fully loaded and
// never touches "t".
const CrashSite kSweep[] = {
    {"wal.append=crash", true},      // before the record is durable
    {"wal.sync=crash", true},        // record written, not yet acknowledged
    {"commit.publish=crash", true},  // durable but not yet visible
    {"ckpt.begin=crash", false},
    {"ckpt.table=crash", false},     // before a merged version is written
    {"table.create=crash", false},   // creating the .tmp version file
    {"table.append=crash", false},   // mid-write of the merged version
    {"table.read=crash", false},     // reading the stable image to merge
    {"table.sync=crash", false},     // syncing the merged version
    {"ckpt.rename=crash", false},    // before temps move into place
    {"catalog.create=crash", false}, // writing the new catalog temp
    {"catalog.append=crash", false},
    {"catalog.sync=crash", false},
    {"ckpt.publish=crash", false},   // before the catalog commit point
    {"ckpt.reset=crash", false},     // published, WAL not yet truncated
    {"wal.truncate=crash", false},   // inside the WAL reset itself
    {"ckpt.done=crash", false},      // fully complete
    // A bulk load publishes through the same routine as a checkpoint.
    {"ckpt.table=crash", false, true},
    {"table.create=crash", false, true},
    {"table.append=crash", false, true},
    {"table.sync=crash", false, true},
    {"ckpt.rename=crash", false, true},
    {"table.open=crash", false, true},   // opening the renamed new version
    {"table.read=crash", false, true},   // reading its footer
    {"catalog.create=crash", false, true},
    {"catalog.append=crash", false, true},
    {"catalog.sync=crash", false, true},
    {"ckpt.publish=crash", false, true},
};

constexpr int kBulkLoadRows = 150;  // three stripes: several table.append hits

TEST_F(CrashTortureTest, SweepEveryCrashSiteRecoversBitIdentically) {
  Config cfg = TortureConfig();
  int case_idx = 0;
  for (const CrashSite& site : kSweep) {
    SCOPED_TRACE(site.spec);
    std::string dbdir = dir_ + "/sweep" + std::to_string(case_idx);
    Rng rng(1000 + static_cast<uint64_t>(case_idx));
    case_idx++;

    Rows shadow;
    int64_t id_counter = 0;
    Db db;
    ASSERT_TRUE(OpenDb(dbdir, cfg, &db).ok());
    ASSERT_TRUE(SeedDb(db.mgr.get(), 100, &shadow, &id_counter).ok());
    // A few committed transactions, a clean checkpoint, then more commits,
    // so the crash hits a state with merged history AND live WAL + deltas.
    for (int i = 0; i < 3; i++) {
      auto plan = MakePlan(&rng, shadow.size(), &id_counter);
      ASSERT_TRUE(ApplyToDb(db.mgr.get(), plan).ok());
      ApplyToShadow(&shadow, plan);
    }
    ASSERT_TRUE(db.mgr->Checkpoint().ok());
    for (int i = 0; i < 3; i++) {
      auto plan = MakePlan(&rng, shadow.size(), &id_counter);
      ASSERT_TRUE(ApplyToDb(db.mgr.get(), plan).ok());
      ApplyToShadow(&shadow, plan);
    }

    if (site.via_bulk_load) {
      ASSERT_TRUE(CreateTwoColumnTable(db.mgr.get(), "b").ok());
    }
    // While a ckpt.* site fires, a reader holding the pre-publish snapshot
    // of "t" scans it over and over (the publish writes its versions
    // without blocking readers); every scan, including the ones after the
    // crash, must return the same rows.
    bool with_reader = std::string(site.spec).rfind("ckpt.", 0) == 0;
    TableSnapshot held;
    Rows held_rows;
    if (with_reader) {
      auto snap = db.mgr->GetSnapshot("t");
      ASSERT_TRUE(snap.ok());
      held = *snap;
      ASSERT_TRUE(MaterializeSnapshot(held, &held_rows).ok());
      ASSERT_EQ(held_rows, shadow);
    }
    ASSERT_TRUE(failpoint::Arm(site.spec).ok());
    std::atomic<bool> stop_reader{false};
    std::atomic<int> reader_scans{0};
    std::thread reader;
    if (with_reader) {
      reader = std::thread([&] {
        while (!stop_reader) {
          Rows rows;
          Status s = MaterializeSnapshot(held, &rows);
          EXPECT_TRUE(s.ok()) << s.ToString();
          EXPECT_EQ(rows, held_rows) << site.spec;
          reader_scans++;
        }
      });
      while (reader_scans == 0) std::this_thread::yield();
    }
    std::vector<Op> crash_plan;
    bool crashed = false;
    try {
      if (site.via_commit) {
        crash_plan = MakePlan(&rng, shadow.size(), &id_counter);
        (void)ApplyToDb(db.mgr.get(), crash_plan);
      } else if (site.via_bulk_load) {
        (void)LoadRows(db.mgr.get(), "b", kBulkLoadRows);
      } else {
        (void)db.mgr->Checkpoint();
      }
    } catch (const SimulatedCrash&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed) << "site never fired: " << site.spec;
    failpoint::DisarmAll();
    if (with_reader) {
      // At least one whole scan starts after the crash.
      int scans_at_crash = reader_scans;
      while (reader_scans < scans_at_crash + 2) std::this_thread::yield();
      stop_reader = true;
      reader.join();
    }
    // Abandon the crashed instance. (Destroying it only closes file
    // descriptors — no destructor repairs on-disk state, so the directory
    // is exactly what the crash left behind.)
    db.mgr.reset();

    ASSERT_TRUE(OpenDb(dbdir, cfg, &db).ok()) << site.spec;
    Rows recovered;
    ASSERT_TRUE(Materialize(db.mgr.get(), &recovered).ok());

    if (site.via_commit) {
      // The in-flight transaction either fully survived or fully vanished.
      Rows with = shadow;
      ApplyToShadow(&with, crash_plan);
      bool before = recovered == shadow;
      bool after = recovered == with;
      if (!before && !after) {
        DumpArtifacts(dbdir, std::string("sweep-") + site.spec,
                      std::string(site.spec) + "\nexpected " +
                          Describe(shadow) + "\n or " + Describe(with) +
                          "\n got " + Describe(recovered));
      }
      ASSERT_TRUE(before || after)
          << site.spec << ": recovered " << Describe(recovered)
          << ", expected " << Describe(shadow) << " or " << Describe(with);
      if (after) shadow = with;
    } else {
      // A checkpoint is content-preserving, a bulk load of "b" leaves "t"
      // alone: recovery must be exact.
      if (recovered != shadow) {
        DumpArtifacts(dbdir, std::string("sweep-") + site.spec,
                      std::string(site.spec) + "\nexpected " +
                          Describe(shadow) + "\n got " + Describe(recovered));
      }
      ASSERT_EQ(recovered, shadow)
          << site.spec << ": recovered " << Describe(recovered)
          << ", expected " << Describe(shadow);
    }
    if (site.via_bulk_load) {
      // The load either fully happened or never did; an empty table still
      // accepts it.
      Rows loaded;
      ASSERT_TRUE(Materialize(db.mgr.get(), &loaded, "b").ok());
      ASSERT_TRUE(loaded.empty() || loaded == LoadedRows(kBulkLoadRows))
          << site.spec << ": table b holds " << Describe(loaded);
      if (loaded.empty()) {
        ASSERT_TRUE(LoadRows(db.mgr.get(), "b", kBulkLoadRows).ok());
      }
    }

    // Liveness: the recovered database keeps accepting work.
    auto plan = MakePlan(&rng, shadow.size(), &id_counter);
    ASSERT_TRUE(ApplyToDb(db.mgr.get(), plan).ok()) << site.spec;
    ApplyToShadow(&shadow, plan);
    ASSERT_TRUE(db.mgr->Checkpoint().ok()) << site.spec;
    ASSERT_TRUE(Materialize(db.mgr.get(), &recovered).ok());
    ASSERT_EQ(recovered, shadow) << site.spec;
  }
}

// A bulk load that returns an error must not be published: the table stays
// empty in memory and after reopen. Failing the open of the new version
// exercises the last step before the catalog commit point.
TEST_F(CrashTortureTest, FailedBulkLoadIsNotDurable) {
  Config cfg = TortureConfig();
  std::string dbdir = dir_ + "/failed_load";
  Db db;
  ASSERT_TRUE(OpenDb(dbdir, cfg, &db).ok());
  ASSERT_TRUE(CreateTwoColumnTable(db.mgr.get(), "t").ok());
  ASSERT_TRUE(failpoint::Arm("table.open=err:EIO,count:1").ok());
  Status s = LoadRows(db.mgr.get(), "t", 100);
  failpoint::DisarmAll();
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();

  Rows rows;
  ASSERT_TRUE(Materialize(db.mgr.get(), &rows).ok());
  EXPECT_TRUE(rows.empty()) << Describe(rows);
  ASSERT_TRUE(OpenDb(dbdir, cfg, &db).ok());
  ASSERT_TRUE(Materialize(db.mgr.get(), &rows).ok());
  EXPECT_TRUE(rows.empty()) << "after reopen: " << Describe(rows);

  // The table still takes the load.
  ASSERT_TRUE(LoadRows(db.mgr.get(), "t", 100).ok());
  ASSERT_TRUE(OpenDb(dbdir, cfg, &db).ok());
  ASSERT_TRUE(Materialize(db.mgr.get(), &rows).ok());
  EXPECT_EQ(rows, LoadedRows(100));
}

// --- Randomized monkey mode -------------------------------------------------

// Faults the monkey may arm mid-workload. Crash faults end in recovery;
// error faults must surface as a failed operation and nothing else.
const char* kMonkeyFaults[] = {
    "wal.append=err:EIO,count:1",
    "wal.append=torn:9,count:1",
    "wal.sync=err:EIO,count:1",
    "wal.append=crash",
    "commit.publish=crash",
    "table.read=err:EIO,count:1",
    "table.read=corrupt,count:1",
    "bufmgr.load=err:EIO,count:1",
    "table.append=err:EIO,count:1",
    "table.sync=err:EIO,count:1",
    "catalog.append=err:EIO,count:1",
    "ckpt.table=err:INTERNAL,count:1",
    "ckpt.rename=crash",
    "ckpt.publish=crash",
    "ckpt.reset=crash",
    "wal.sync=delay:200,count:1",
};

uint64_t EnvU64(const char* name, uint64_t dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || v[0] == '\0') return dflt;
  return std::strtoull(v, nullptr, 10);
}

class Monkey {
 public:
  Monkey(std::string dbdir, uint64_t seed)
      : dbdir_(std::move(dbdir)), seed_(seed), rng_(seed),
        cfg_(TortureConfig()) {}

  void Run() {
    ASSERT_TRUE(OpenDb(dbdir_, cfg_, &db_).ok());
    ASSERT_TRUE(SeedDb(db_.mgr.get(),
                       50 + static_cast<int>(rng_.Next() % 100), &shadow_,
                       &id_counter_).ok());
    int steps = 30 + static_cast<int>(rng_.Next() % 20);
    for (step_ = 0; step_ < steps; step_++) {
      if (rng_.Next() % 100 < 30) {
        const char* fault =
            kMonkeyFaults[rng_.Next() %
                          (sizeof(kMonkeyFaults) / sizeof(kMonkeyFaults[0]))];
        ASSERT_TRUE(failpoint::Arm(fault).ok());
        last_fault_ = fault;
      }
      uint64_t roll = rng_.Next() % 100;
      try {
        if (roll < 60) {
          StepTxn();
        } else if (roll < 75) {
          (void)db_.mgr->Checkpoint();  // error allowed, corruption not
        } else {
          StepRead();
        }
      } catch (const SimulatedCrash&) {
        Recover("crash");
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    // Final verdict: disarm everything, reopen, compare against the oracle,
    // then prove the database still takes commits and checkpoints.
    Recover("final");
    if (::testing::Test::HasFatalFailure()) return;
    auto plan = MakePlan(&rng_, shadow_.size(), &id_counter_);
    ASSERT_TRUE(ApplyToDb(db_.mgr.get(), plan).ok()) << "seed " << seed_;
    ApplyToShadow(&shadow_, plan);
    ASSERT_TRUE(db_.mgr->Checkpoint().ok()) << "seed " << seed_;
    Rows rows;
    ASSERT_TRUE(Materialize(db_.mgr.get(), &rows).ok()) << "seed " << seed_;
    VerifyRows(rows, "post-recovery");
  }

 private:
  void StepTxn() {
    auto plan = MakePlan(&rng_, shadow_.size(), &id_counter_);
    // Register the would-be state *before* attempting the commit: a commit
    // that fails or crashes mid-protocol may or may not have reached the WAL
    // durably (e.g. a crash after the record is written but before the
    // in-memory publish), so until recovery looks at the disk, both states
    // are acceptable.
    pending_ = shadow_;
    ApplyToShadow(&*pending_, plan);
    Status s = ApplyToDb(db_.mgr.get(), plan);  // may throw SimulatedCrash
    if (s.ok()) {
      shadow_ = std::move(*pending_);
      pending_.reset();
    } else {
      // Resolve the ambiguity now, the way an operator would: restart and
      // look at what recovery produces.
      Recover("failed-commit");
    }
  }

  void StepRead() {
    Rows rows;
    Status s = Materialize(db_.mgr.get(), &rows);  // may throw
    // Injected read errors surface as a failed operation; a *successful*
    // read must be exact (checksums turn silent flips into errors).
    if (s.ok()) VerifyRows(rows, "live read");
  }

  // Disarm, reopen, and check the recovered contents against the oracle
  // (or the two acceptable states while a commit's fate is ambiguous).
  void Recover(const std::string& why) {
    failpoint::DisarmAll();
    db_.mgr.reset();
    ASSERT_TRUE(OpenDb(dbdir_, cfg_, &db_).ok())
        << "seed " << seed_ << " step " << step_ << " (" << why << ")";
    Rows rows;
    ASSERT_TRUE(Materialize(db_.mgr.get(), &rows).ok())
        << "seed " << seed_ << " step " << step_ << " (" << why << ")";
    if (pending_ && rows == *pending_) {
      shadow_ = std::move(*pending_);
      pending_.reset();
      return;
    }
    pending_.reset();
    VerifyRows(rows, "recovery (" + why + ")");
  }

  void VerifyRows(const Rows& rows, const std::string& what) {
    if (rows == shadow_) return;
    std::string info = "seed " + std::to_string(seed_) + " step " +
                       std::to_string(step_) + " " + what +
                       (last_fault_ ? std::string("\nlast fault: ") + last_fault_
                                    : std::string()) +
                       "\nexpected " + Describe(shadow_) + "\n got " +
                       Describe(rows);
    DumpArtifacts(dbdir_, "monkey-seed-" + std::to_string(seed_), info);
    FAIL() << info << "\nreplay: VWISE_TORTURE_SEED=" << seed_
           << " VWISE_TORTURE_ITERS=1";
  }

  std::string dbdir_;
  uint64_t seed_;
  Rng rng_;
  Config cfg_;
  Db db_;
  Rows shadow_;
  std::optional<Rows> pending_;
  int64_t id_counter_ = 0;
  int step_ = 0;
  const char* last_fault_ = nullptr;
};

// --- spill scratch crash sweep ----------------------------------------------

// Parks deliberately-abandoned objects in a static sink so LeakSanitizer
// sees them as reachable: a simulated crash must run no destructors (that is
// what the recovery assertions are about), but the bytes are not "lost".
void AbandonAfterSimulatedCrash(void* p) {
  static std::vector<void*>* sink = new std::vector<void*>();
  sink->push_back(p);
}

// Counts regular files under `base`, recursively; 0 for a missing dir.
size_t CountFilesUnder(const std::string& base) {
  std::error_code ec;
  size_t n = 0;
  std::filesystem::recursive_directory_iterator it(base, ec), end;
  if (ec) return 0;
  for (; it != end; ++it) {
    if (it->is_regular_file()) n++;
  }
  return n;
}

struct SpillCrashSite {
  const char* spec;   // failpoint arm spec, always a crash mode
  const char* site;   // expected SimulatedCrash::site()
  bool leaves_files;  // scratch files already on disk when the crash fires
};

// Every spill I/O site, crashed while a budgeted external sort is mid-spill.
// A killed process leaks its per-query scratch by design (no destructors run
// across SIGKILL); the next Database::Open must sweep the spill base and the
// same query must then run to completion, bit-identical to an unbudgeted run.
const SpillCrashSite kSpillSweep[] = {
    {"spill.create=crash", "spill.create", false},  // before the file exists
    {"spill.append=crash", "spill.append", true},   // mid-write of a run
    {"spill.open=crash", "spill.open", true},       // reopening runs to merge
    {"spill.read=crash", "spill.read", true},       // mid-merge of the runs
};

TEST_F(CrashTortureTest, SweepSpillSitesScratchIsSweptOnReopen) {
  int case_idx = 0;
  for (const SpillCrashSite& site : kSpillSweep) {
    SCOPED_TRACE(site.spec);
    std::string dbdir = dir_ + "/spill" + std::to_string(case_idx++);
    Config cfg;
    cfg.vector_size = 64;  // many chunks so the sort spills several runs
    cfg.stripe_rows = 512;
    cfg.spill_dir = dbdir + "/spill";
    auto db = Database::Open(dbdir, cfg);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    TableSchema t("t", {ColumnDef("k", DataType::Int64()),
                        ColumnDef("v", DataType::Int64())});
    ASSERT_TRUE((*db)->CreateTable(t).ok());
    ASSERT_TRUE((*db)
                    ->BulkLoad("t",
                               [](TableWriter* w) -> Status {
                                 for (int64_t i = 0; i < 4000; i++) {
                                   VWISE_RETURN_IF_ERROR(w->AppendRow(
                                       {Value::Int((i * 2654435761) % 4096),
                                        Value::Int(i)}));
                                 }
                                 return Status::OK();
                               })
                    .ok());
    auto snap = (*db)->Internals().tm->GetSnapshot("t");
    ASSERT_TRUE(snap.ok());

    ASSERT_TRUE(failpoint::Arm(site.spec).ok());
    // Heap-allocate and leak the context and plan: a real crash runs no
    // destructors, so recovery must not depend on their cleanup.
    auto* ctx = new QueryContext();
    ctx->set_memory_budget(24 << 10);
    ctx->set_spill_dir(cfg.spill_dir);
    auto* sort = new SortOperator(
        std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0, 1},
                                       cfg),
        std::vector<SortKey>{SortKey{0, true}}, cfg);
    bool crashed = false;
    try {
      (void)CollectRows(sort, ctx, cfg.vector_size);
    } catch (const SimulatedCrash& c) {
      crashed = true;
      EXPECT_EQ(c.site(), site.site);
    }
    EXPECT_TRUE(crashed) << "site never fired: " << site.spec;
    AbandonAfterSimulatedCrash(ctx);
    AbandonAfterSimulatedCrash(sort);
    failpoint::DisarmAll();
    if (site.leaves_files) {
      EXPECT_GT(CountFilesUnder(cfg.spill_dir), 0u)
          << "crash left no scratch — the site never spilled";
    }

    // Reopen: Database::Open sweeps the spill base clean, and the query
    // that "died" now answers, matching an unbudgeted run bit-for-bit.
    db->reset();
    db = Database::Open(dbdir, cfg);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(CountFilesUnder(cfg.spill_dir), 0u);
    auto session = (*db)->Connect();
    PlanBuilder q = session->NewPlan();
    ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
    q.Sort({SortKey{0, true}, SortKey{1, true}});
    auto prepared = session->Prepare(&q);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    Result<QueryResult> clean = (*prepared)->Run();
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    QueryOptions opt;
    opt.memory_budget_bytes = 24 << 10;
    Result<QueryResult> budgeted = (*prepared)->Run(opt);
    ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
    ASSERT_EQ(budgeted->rows.size(), 4000u);
    EXPECT_EQ(clean->rows, budgeted->rows);
    EXPECT_GT(budgeted->spill_bytes_written, 0u);
    EXPECT_EQ(CountFilesUnder(cfg.spill_dir), 0u);  // scratch reclaimed
    session.reset();
    db->reset();
    std::filesystem::remove_all(dbdir);
  }
}

// The recursive-repartition site ("spill.repartition"), crashed and errored
// while an aggregation is splitting an oversized partition onto a deeper
// radix level. Config forces real recursion: 2-way partitioning and a budget
// no level-0 partition fits in.
TEST_F(CrashTortureTest, RepartitionCrashAndErrorLeaveNoDebtAfterReopen) {
  std::string dbdir = dir_ + "/repart";
  Config cfg;
  cfg.vector_size = 64;
  cfg.stripe_rows = 512;
  cfg.spill_partitions = 2;
  cfg.spill_max_repartition_depth = 6;
  cfg.spill_dir = dbdir + "/spill";
  auto db = Database::Open(dbdir, cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  TableSchema t("t", {ColumnDef("k", DataType::Int64()),
                      ColumnDef("v", DataType::Int64())});
  ASSERT_TRUE((*db)->CreateTable(t).ok());
  ASSERT_TRUE((*db)->BulkLoad("t", [](TableWriter* w) -> Status {
    for (int64_t i = 0; i < 4000; i++) {
      VWISE_RETURN_IF_ERROR(w->AppendRow({Value::Int(i), Value::Int(i % 97)}));
    }
    return Status::OK();
  }).ok());
  auto snap = (*db)->Internals().tm->GetSnapshot("t");
  ASSERT_TRUE(snap.ok());
  auto make_agg = [&]() {
    return new HashAggOperator(
        std::make_unique<ScanOperator>(*snap, std::vector<uint32_t>{0, 1},
                                       cfg),
        std::vector<size_t>{0}, std::vector<AggSpec>{AggSpec::Sum(1)}, cfg);
  };

  // Error mode: the injected fault surfaces as the query's clean failure —
  // reservations drained, scratch removed with the context.
  {
    ASSERT_TRUE(failpoint::Arm("spill.repartition=err").ok());
    QueryContext ctx;
    ctx.set_memory_budget(8 << 10);
    ctx.set_spill_dir(cfg.spill_dir);
    std::unique_ptr<HashAggOperator> agg(make_agg());
    Result<QueryResult> r = CollectRows(agg.get(), &ctx, cfg.vector_size);
    ASSERT_FALSE(r.ok()) << "spill.repartition=err never fired";
    EXPECT_EQ(r.status().code(), StatusCode::kIOError)
        << r.status().ToString();
    EXPECT_EQ(ctx.reserved_bytes(), 0u);
    failpoint::DisarmAll();
  }
  EXPECT_EQ(CountFilesUnder(cfg.spill_dir), 0u);

  // Crash mode: scratch leaks by design, the next Open sweeps it, and the
  // same query then completes under the same recursion-forcing budget.
  ASSERT_TRUE(failpoint::Arm("spill.repartition=crash").ok());
  auto* ctx = new QueryContext();
  ctx->set_memory_budget(8 << 10);
  ctx->set_spill_dir(cfg.spill_dir);
  auto* agg = make_agg();
  bool crashed = false;
  try {
    (void)CollectRows(agg, ctx, cfg.vector_size);
  } catch (const SimulatedCrash& c) {
    crashed = true;
    EXPECT_EQ(c.site(), "spill.repartition");
  }
  ASSERT_TRUE(crashed) << "spill.repartition=crash never fired";
  AbandonAfterSimulatedCrash(ctx);
  AbandonAfterSimulatedCrash(agg);
  failpoint::DisarmAll();
  EXPECT_GT(CountFilesUnder(cfg.spill_dir), 0u)
      << "crash left no scratch — repartitioning never started";

  db->reset();
  db = Database::Open(dbdir, cfg);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(CountFilesUnder(cfg.spill_dir), 0u);
  // No Sort on top: sorting would materialize all 4000 result rows, which
  // can never fit the recursion-forcing 8 KB budget. Canonicalize the
  // (partition-major vs. hash-order) outputs client-side instead.
  auto session = (*db)->Connect();
  PlanBuilder q = session->NewPlan();
  ASSERT_TRUE(q.Scan("t", {0, 1}).ok());
  q.Agg({0}, {AggSpec::Sum(1)}, {DataType::Int64(), DataType::Int64()});
  auto prepared = session->Prepare(&q);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  auto by_key = [](const std::vector<Value>& a, const std::vector<Value>& b) {
    return a[0].AsInt() < b[0].AsInt();
  };
  Result<QueryResult> clean = (*prepared)->Run();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  std::sort(clean->rows.begin(), clean->rows.end(), by_key);
  QueryOptions opt;
  opt.memory_budget_bytes = 8 << 10;
  Result<QueryResult> budgeted = (*prepared)->Run(opt);
  ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
  ASSERT_EQ(budgeted->rows.size(), 4000u);
  std::sort(budgeted->rows.begin(), budgeted->rows.end(), by_key);
  EXPECT_EQ(clean->rows, budgeted->rows);
  EXPECT_EQ(CountFilesUnder(cfg.spill_dir), 0u);
  session.reset();
  db->reset();
  std::filesystem::remove_all(dbdir);
}

// Governor admission sites crash-tested on the calling thread. (Through a
// live QueryService these sites run on runner threads, where a SimulatedCrash
// would std::terminate — err mode covers that path in overload_soak_test.)
TEST_F(CrashTortureTest, GovernorSitesCrashOnCallingThread) {
  {
    ASSERT_TRUE(failpoint::Arm("governor.admit=crash").ok());
    MemoryGovernor gov(64 << 10);
    bool crashed = false;
    try {
      (void)gov.TryAdmit(16 << 10);
    } catch (const SimulatedCrash& c) {
      crashed = true;
      EXPECT_EQ(c.site(), "governor.admit");
    }
    EXPECT_TRUE(crashed);
    failpoint::DisarmAll();
    // The crash fired before any accounting: stats are untouched and the
    // governor keeps admitting.
    EXPECT_EQ(gov.stats().granted, 0u);
    auto adm = gov.TryAdmit(16 << 10);
    ASSERT_TRUE(adm.ok());
    EXPECT_TRUE(*adm == MemoryGovernor::Admission::kGranted);
  }
  {
    ASSERT_TRUE(failpoint::Arm("governor.requeue=crash").ok());
    MemoryGovernor gov(64 << 10);
    bool crashed = false;
    try {
      (void)gov.NoteRequeue();
    } catch (const SimulatedCrash& c) {
      crashed = true;
      EXPECT_EQ(c.site(), "governor.requeue");
    }
    EXPECT_TRUE(crashed);
    failpoint::DisarmAll();
    EXPECT_EQ(gov.stats().queued, 0u);
    EXPECT_TRUE(gov.NoteRequeue().ok());
    EXPECT_EQ(gov.stats().queued, 1u);
  }
}

TEST_F(CrashTortureTest, MonkeyRandomizedFaultInjection) {
  uint64_t base_seed = EnvU64("VWISE_TORTURE_SEED", 20260806);
  uint64_t iters = EnvU64("VWISE_TORTURE_ITERS", 25);
  for (uint64_t i = 0; i < iters; i++) {
    uint64_t seed = base_seed + i;
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::string dbdir = dir_ + "/monkey" + std::to_string(i);
    Monkey monkey(dbdir, seed);
    monkey.Run();
    if (::testing::Test::HasFatalFailure()) return;
    failpoint::DisarmAll();
    std::filesystem::remove_all(dbdir);
  }
}

}  // namespace
}  // namespace vwise
