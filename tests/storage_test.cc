// Storage engine unit tests: constraints, indexes, deletes, bookmarks,
// transactions, provider surface.

#include <gtest/gtest.h>

#include "src/storage/storage_engine.h"

namespace dhqp {
namespace {

Schema TwoCol() {
  Schema schema;
  schema.AddColumn(ColumnDef{"id", DataType::kInt64, false});
  schema.AddColumn(ColumnDef{"name", DataType::kString, true});
  return schema;
}

TEST(TableTest, InsertValidatesArityAndTypes) {
  Table t("t", TwoCol());
  EXPECT_FALSE(t.Insert({Value::Int64(1)}).ok());  // Arity.
  EXPECT_FALSE(t.Insert({Value::Null(), Value::String("x")}).ok());  // NOT NULL.
  // Coercible types are cast.
  ASSERT_TRUE(t.Insert({Value::String("7"), Value::String("x")}).ok());
  EXPECT_EQ(t.GetRow(0)->at(0).int64_value(), 7);
  // Non-coercible rejected.
  EXPECT_FALSE(t.Insert({Value::String("abc"), Value::String("x")}).ok());
}

TEST(TableTest, CheckConstraintEnforced) {
  Table t("t", TwoCol());
  CheckConstraint check{"id", IntervalSet::FromComparison(">", Value::Int64(0)),
                        "id > 0"};
  ASSERT_TRUE(t.AddCheckConstraint(check).ok());
  EXPECT_TRUE(t.Insert({Value::Int64(5), Value::Null()}).ok());
  auto bad = t.Insert({Value::Int64(-1), Value::Null()});
  EXPECT_EQ(bad.status().code(), StatusCode::kConstraintViolation);
}

TEST(TableTest, AddCheckRejectsExistingViolations) {
  Table t("t", TwoCol());
  ASSERT_TRUE(t.Insert({Value::Int64(-5), Value::Null()}).ok());
  CheckConstraint check{"id", IntervalSet::FromComparison(">", Value::Int64(0)),
                        "id > 0"};
  EXPECT_FALSE(t.AddCheckConstraint(check).ok());
}

TEST(TableTest, UniqueIndexRejectsDuplicates) {
  Table t("t", TwoCol());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, /*unique=*/true).ok());
  ASSERT_TRUE(t.Insert({Value::Int64(1), Value::String("a")}).ok());
  auto dup = t.Insert({Value::Int64(1), Value::String("b")});
  EXPECT_EQ(dup.status().code(), StatusCode::kConstraintViolation);
  // Non-unique index tolerates duplicates.
  ASSERT_TRUE(t.CreateIndex("byname", {"name"}, /*unique=*/false).ok());
  EXPECT_TRUE(t.Insert({Value::Int64(2), Value::String("a")}).ok());
}

TEST(TableTest, DeleteMaintainsIndexes) {
  Table t("t", TwoCol());
  ASSERT_TRUE(t.CreateIndex("pk", {"id"}, true).ok());
  auto id1 = t.Insert({Value::Int64(1), Value::String("a")});
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(t.Delete(*id1).ok());
  EXPECT_EQ(t.live_row_count(), 0u);
  EXPECT_EQ(t.GetRow(*id1), nullptr);
  // The key is free again.
  EXPECT_TRUE(t.Insert({Value::Int64(1), Value::String("c")}).ok());
  EXPECT_FALSE(t.Delete(*id1).ok());  // Double delete.
}

TEST(StorageEngineTest, TransactionUndoOnAbort) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  ASSERT_TRUE(engine.Begin(1).ok());
  ASSERT_TRUE(engine.InsertRow(1, "t", {Value::Int64(1), Value::Null()}).ok());
  ASSERT_TRUE(engine.InsertRow(1, "t", {Value::Int64(2), Value::Null()}).ok());
  Table* t = engine.GetTable("t").value();
  EXPECT_EQ(t->live_row_count(), 2u);
  ASSERT_TRUE(engine.Abort(1).ok());
  EXPECT_EQ(t->live_row_count(), 0u);
}

TEST(StorageEngineTest, TransactionCommitKeepsRows) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  ASSERT_TRUE(engine.Begin(2).ok());
  ASSERT_TRUE(engine.InsertRow(2, "t", {Value::Int64(1), Value::Null()}).ok());
  ASSERT_TRUE(engine.Prepare(2).ok());
  ASSERT_TRUE(engine.Commit(2).ok());
  EXPECT_EQ(engine.GetTable("t").value()->live_row_count(), 1u);
}

TEST(StorageSessionTest, ProviderSurface) {
  StorageEngine engine;
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  Table* t = engine.GetTable("t").value();
  ASSERT_TRUE(t->CreateIndex("pk", {"id"}, true).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        t->Insert({Value::Int64(i), Value::String("n" + std::to_string(i))})
            .ok());
  }
  StorageSession session(&engine);

  // IOpenRowset.
  auto rowset = session.OpenRowset("t");
  ASSERT_TRUE(rowset.ok());
  auto rows = DrainRowset(rowset->get());
  EXPECT_EQ(rows->size(), 10u);

  // IDBSchemaRowset.
  auto tables = session.ListTables();
  ASSERT_TRUE(tables.ok());
  EXPECT_EQ((*tables)[0].indexes.size(), 1u);
  EXPECT_EQ((*tables)[0].cardinality, 10);

  // IRowsetIndex: range [3, 6).
  IndexRange range;
  range.lo = Value::Int64(3);
  range.hi = Value::Int64(6);
  range.hi_inclusive = false;
  auto ranged = session.OpenIndexRange("t", "pk", range);
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(DrainRowset(ranged->get())->size(), 3u);

  // Index keys + IRowsetLocate bookmarks.
  auto keys = session.OpenIndexKeys("t", "pk", range);
  ASSERT_TRUE(keys.ok());
  auto key_rows = DrainRowset(keys->get());
  ASSERT_EQ(key_rows->size(), 3u);
  const Value& bookmark = (*key_rows)[0].back();
  auto fetched = session.FetchByBookmark("t", bookmark);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->has_value());
  EXPECT_EQ((**fetched)[0].int64_value(), 3);

  // Histogram rowset.
  auto stats = session.GetStatistics("t", "id");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->row_count, 10);

  // Command surface refused (index provider category, §3.3).
  EXPECT_FALSE(session.CreateCommand().ok());
}

// Table scans read a shared, immutable snapshot of the live rows: a rowset
// keeps the rows as of its open, DML is visible to the next open, and the
// cursor keeps the positional surface (Restart, SkipRows, batch slices).
class SnapshotRowsetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(engine_.CreateTable("t", TwoCol()).ok());
    table_ = engine_.GetTable("t").value();
    for (int i = 0; i < 10; ++i) {
      ids_.push_back(table_->Insert({Value::Int64(i), Value::Null()}).value());
    }
  }

  std::unique_ptr<Rowset> Open() {
    auto rowset = session_.OpenRowset("t");
    EXPECT_TRUE(rowset.ok());
    return std::move(rowset).value();
  }

  static std::vector<int64_t> Ids(Rowset* rowset) {
    auto rows = DrainRowset(rowset);
    EXPECT_TRUE(rows.ok());
    std::vector<int64_t> out;
    for (const Row& row : rows.value()) out.push_back(row[0].int64_value());
    return out;
  }

  StorageEngine engine_;
  StorageSession session_{&engine_};
  Table* table_ = nullptr;
  std::vector<int64_t> ids_;
};

TEST_F(SnapshotRowsetTest, RowsetOpenedBeforeInsertKeepsItsRows) {
  auto before = Open();
  ASSERT_TRUE(table_->Insert({Value::Int64(10), Value::Null()}).ok());
  auto after = Open();
  EXPECT_EQ(Ids(before.get()).size(), 10u);
  std::vector<int64_t> seen = Ids(after.get());
  ASSERT_EQ(seen.size(), 11u);
  EXPECT_EQ(seen.back(), 10);
}

TEST_F(SnapshotRowsetTest, RowsetOpenedBeforeDeleteKeepsItsRows) {
  auto before = Open();
  ASSERT_TRUE(table_->Delete(ids_[3]).ok());
  auto after = Open();
  std::vector<int64_t> old_rows = Ids(before.get());
  ASSERT_EQ(old_rows.size(), 10u);
  EXPECT_EQ(old_rows[3], 3);
  std::vector<int64_t> new_rows = Ids(after.get());
  EXPECT_EQ(new_rows, (std::vector<int64_t>{0, 1, 2, 4, 5, 6, 7, 8, 9}));
}

TEST_F(SnapshotRowsetTest, OpensBetweenDmlShareOneSnapshot) {
  auto first = table_->LiveSnapshot();
  EXPECT_EQ(table_->LiveSnapshot(), first);
  ASSERT_TRUE(table_->Delete(ids_[0]).ok());
  auto second = table_->LiveSnapshot();
  EXPECT_NE(second, first);
  EXPECT_EQ(first->size(), 10u);
  EXPECT_EQ(second->size(), 9u);
}

TEST_F(SnapshotRowsetTest, RestartSkipAndBatchMatchVectorRowset) {
  std::vector<Row> copy;
  for (int i = 0; i < 10; ++i) copy.push_back({Value::Int64(i), Value::Null()});
  VectorRowset reference(TwoCol(), copy);
  auto snapshot = Open();
  for (Rowset* rowset : {static_cast<Rowset*>(&reference), snapshot.get()}) {
    SCOPED_TRACE(rowset == &reference ? "VectorRowset" : "snapshot");
    EXPECT_EQ(rowset->SkipRows(3).value(), 3);
    RowBatch batch;
    ASSERT_TRUE(rowset->NextBatch(&batch, 4).value());
    ASSERT_EQ(batch.size(), 4u);
    EXPECT_EQ(batch.rows[0][0].int64_value(), 3);
    EXPECT_EQ(batch.rows[3][0].int64_value(), 6);
    EXPECT_EQ(rowset->SkipRows(100).value(), 3);  // Clamped at the end.
    EXPECT_FALSE(rowset->NextBatch(&batch, 4).value());
    ASSERT_TRUE(rowset->Restart().ok());
    Row row;
    ASSERT_TRUE(rowset->Next(&row).value());
    EXPECT_EQ(row[0].int64_value(), 0);
    EXPECT_EQ(Ids(rowset).size(), 9u);
  }
}

TEST(StorageSessionTest, NotFoundErrors) {
  StorageEngine engine;
  StorageSession session(&engine);
  EXPECT_EQ(session.OpenRowset("missing").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(engine.CreateTable("t", TwoCol()).ok());
  IndexRange range;
  EXPECT_EQ(session.OpenIndexRange("t", "noidx", range).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(
      session.FetchByBookmark("t", Value::String("bad")).ok());
}

}  // namespace
}  // namespace dhqp
