#include "src/connectors/engine_provider.h"

namespace dhqp {

ProviderCapabilities SqlServerCapabilities() {
  ProviderCapabilities caps;
  caps.provider_name = "SQLOLEDB";
  caps.source_type = "Relational";
  caps.query_language = "Microsoft Transact-SQL";
  caps.sql_support = SqlSupportLevel::kSql92Full;
  caps.supports_command = true;
  caps.supports_indexes = true;
  caps.supports_bookmarks = true;
  caps.supports_histograms = true;
  caps.supports_schema_rowset = true;
  caps.supports_transactions = true;
  caps.supports_parameters = true;
  caps.supports_nested_selects = true;
  caps.identifier_quote_open = '[';
  caps.identifier_quote_close = ']';
  caps.date_literal_style = DateLiteralStyle::kIsoQuoted;
  return caps;
}

ProviderCapabilities OracleCapabilities() {
  ProviderCapabilities caps;
  caps.provider_name = "MSDAORA";
  caps.source_type = "Relational";
  caps.query_language = "Oracle SQL";
  caps.sql_support = SqlSupportLevel::kSql92Full;
  caps.supports_command = true;
  caps.supports_indexes = true;
  caps.supports_bookmarks = false;
  caps.supports_histograms = true;
  caps.supports_schema_rowset = true;
  caps.supports_transactions = true;
  caps.supports_parameters = false;
  caps.supports_nested_selects = true;
  caps.identifier_quote_open = '"';
  caps.identifier_quote_close = '"';
  caps.date_literal_style = DateLiteralStyle::kDateKeyword;
  return caps;
}

ProviderCapabilities Db2Capabilities() {
  ProviderCapabilities caps;
  caps.provider_name = "DB2OLEDB";
  caps.source_type = "Relational";
  caps.query_language = "DB2 SQL";
  caps.sql_support = SqlSupportLevel::kSql92Entry;
  caps.supports_command = true;
  caps.supports_indexes = false;
  caps.supports_bookmarks = false;
  caps.supports_histograms = false;
  caps.supports_schema_rowset = true;
  caps.supports_transactions = true;
  caps.supports_parameters = false;
  caps.supports_nested_selects = false;
  caps.identifier_quote_open = '"';
  caps.identifier_quote_close = '"';
  caps.date_literal_style = DateLiteralStyle::kDateKeyword;
  return caps;
}

ProviderCapabilities AccessCapabilities() {
  ProviderCapabilities caps;
  caps.provider_name = "Microsoft.Jet.OLEDB";
  caps.source_type = "Relational (desktop)";
  caps.query_language = "Jet SQL";
  caps.sql_support = SqlSupportLevel::kOdbcCore;
  caps.supports_command = true;
  caps.supports_indexes = false;
  caps.supports_bookmarks = false;
  caps.supports_histograms = false;
  caps.supports_schema_rowset = true;
  caps.supports_transactions = false;
  caps.supports_parameters = false;
  caps.supports_nested_selects = false;
  caps.identifier_quote_open = '[';
  caps.identifier_quote_close = ']';
  caps.date_literal_style = DateLiteralStyle::kHashDelimited;
  return caps;
}

namespace {

class EngineCommand : public Command {
 public:
  explicit EngineCommand(Engine* engine) : engine_(engine) {}

  Status SetText(std::string text) override {
    text_ = std::move(text);
    return Status::OK();
  }

  Status BindParameter(const std::string& name, const Value& value) override {
    params_[name] = value;
    return Status::OK();
  }

  Result<std::unique_ptr<Rowset>> Execute() override {
    DHQP_ASSIGN_OR_RETURN(QueryResult result, engine_->Execute(text_, params_));
    if (result.rowset == nullptr) {
      return std::unique_ptr<Rowset>(
          new VectorRowset(Schema{}, std::vector<Row>{}));
    }
    return std::unique_ptr<Rowset>(result.rowset.release());
  }

  Result<int64_t> ExecuteNonQuery() override {
    DHQP_ASSIGN_OR_RETURN(QueryResult result, engine_->Execute(text_, params_));
    return result.rows_affected;
  }

 private:
  Engine* engine_;
  std::string text_;
  std::map<std::string, Value> params_;
};

// Session over a remote engine: rowset/index/metadata calls are answered by
// the engine's storage; commands run its full SQL stack. The capability
// preset gates what the *caller* may use, enforced here for commands and
// index navigation.
class EngineSession : public Session {
 public:
  EngineSession(Engine* engine, const ProviderCapabilities* caps)
      : engine_(engine), caps_(caps) {
    storage_session_ = std::make_unique<StorageSession>(engine_->storage());
  }

  Result<std::unique_ptr<Rowset>> OpenRowset(const std::string& table) override {
    auto rowset = storage_session_->OpenRowset(table);
    if (!rowset.ok() && rowset.status().code() == StatusCode::kNotFound) {
      // Not a storage table: the name may be one of the engine's system
      // views (a host scanning `shard.sys..dm_x` resolves the bare DMV name
      // through this session). User tables shadow DMV names.
      auto sys = engine_->catalog()->SystemSession();
      if (sys.ok()) {
        auto via_sys = (*sys)->OpenRowset(table);
        if (via_sys.ok()) return via_sys;
      }
    }
    return rowset;
  }

  Result<TableMetadata> GetTableMetadata(const std::string& table) override {
    auto meta = storage_session_->GetTableMetadata(table);
    if (meta.ok() || meta.status().code() != StatusCode::kNotFound) {
      if (meta.ok() && !caps_->supports_indexes) meta.value().indexes.clear();
      return meta;
    }
    auto sys = engine_->catalog()->SystemSession();
    if (sys.ok()) {
      auto via_sys = (*sys)->GetTableMetadata(table);
      if (via_sys.ok()) return via_sys;
    }
    return meta;
  }

  Result<std::unique_ptr<Command>> CreateCommand() override {
    if (!caps_->supports_command) {
      return Status::NotSupported("provider is not query-capable");
    }
    return std::unique_ptr<Command>(new EngineCommand(engine_));
  }

  Result<std::vector<TableMetadata>> ListTables() override {
    DHQP_ASSIGN_OR_RETURN(auto tables, storage_session_->ListTables());
    if (!caps_->supports_indexes) {
      for (TableMetadata& t : tables) t.indexes.clear();
    }
    return std::move(tables);
  }

  Result<ColumnStatistics> GetStatistics(const std::string& table,
                                         const std::string& column) override {
    if (!caps_->supports_histograms) {
      return Status::NotSupported("provider does not expose statistics");
    }
    return storage_session_->GetStatistics(table, column);
  }

  Result<std::unique_ptr<Rowset>> OpenIndexRange(const std::string& table,
                                                 const std::string& index,
                                                 const IndexRange& range) override {
    if (!caps_->supports_indexes) {
      return Status::NotSupported("provider does not support indexes");
    }
    return storage_session_->OpenIndexRange(table, index, range);
  }

  Result<std::unique_ptr<Rowset>> OpenIndexKeys(const std::string& table,
                                                const std::string& index,
                                                const IndexRange& range) override {
    if (!caps_->supports_indexes || !caps_->supports_bookmarks) {
      return Status::NotSupported("provider does not support bookmarks");
    }
    return storage_session_->OpenIndexKeys(table, index, range);
  }

  Result<std::optional<Row>> FetchByBookmark(const std::string& table,
                                             const Value& bookmark) override {
    if (!caps_->supports_bookmarks) {
      return Status::NotSupported("provider does not support bookmarks");
    }
    return storage_session_->FetchByBookmark(table, bookmark);
  }

  Result<int64_t> InsertRows(const std::string& table,
                             const std::vector<Row>& rows) override {
    return storage_session_->InsertRows(table, rows);
  }

  Status BeginTransaction(int64_t txn_id) override {
    if (!caps_->supports_transactions) {
      return Status::NotSupported("provider is not transactional");
    }
    return storage_session_->BeginTransaction(txn_id);
  }
  Status PrepareTransaction(int64_t txn_id) override {
    return storage_session_->PrepareTransaction(txn_id);
  }
  Status CommitTransaction(int64_t txn_id) override {
    return storage_session_->CommitTransaction(txn_id);
  }
  Status AbortTransaction(int64_t txn_id) override {
    return storage_session_->AbortTransaction(txn_id);
  }

 private:
  Engine* engine_;
  const ProviderCapabilities* caps_;
  std::unique_ptr<StorageSession> storage_session_;
};

}  // namespace

Result<std::unique_ptr<Session>> EngineDataSource::CreateSession() {
  return std::unique_ptr<Session>(new EngineSession(engine_, &caps_));
}

}  // namespace dhqp
