#include "tpcc_bench.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "bench.h"

namespace perfbench {

using shoremt::Result;
using shoremt::Status;
using shoremt::sm::Session;
using shoremt::sm::TableInfo;
using namespace shoremt::workload;

namespace {

template <typename T>
std::span<const uint8_t> AsBytes(const T& row) {
  return {reinterpret_cast<const uint8_t*>(&row), sizeof(T)};
}

template <typename T>
Result<T> Read(Session* s, const TableInfo& t, uint64_t key) {
  return Timed(SpanKind::kRead, [&] { return ReadTpccRow<T>(s, t, key); });
}

template <typename T>
Status Update(Session* s, const TableInfo& t, uint64_t key, const T& row) {
  return Timed(SpanKind::kUpdate,
               [&] { return s->Update(t, key, AsBytes(row)); });
}

Status Insert(Session* s, const TableInfo& t, uint64_t key,
              std::span<const uint8_t> bytes) {
  return Timed(SpanKind::kInsert,
               [&] { return s->Insert(t, key, bytes).status(); });
}

template <typename T>
bool Decode(std::span<const uint8_t> bytes, T* row) {
  if (bytes.size() != sizeof(T)) return false;
  std::memcpy(row, bytes.data(), sizeof(T));
  return true;
}

/// Visits every row with key in [lo, hi] in key order.
Status Scan(Session* s, const TableInfo& t, uint64_t lo, uint64_t hi,
            const std::function<bool(uint64_t, std::span<const uint8_t>)>& fn) {
  shoremt::sm::Cursor cur = s->OpenCursor(t);
  Status st = cur.Seek(lo);
  while (st.ok() && cur.Valid() && cur.key() <= hi) {
    if (!fn(cur.key(), cur.value())) return Status::Corruption("bad row");
    st = cur.Next();
  }
  return st;
}

bool Near(double a, double b) {
  return std::fabs(a - b) <= 0.005 + 1e-9 * std::fabs(b);  // Half a cent.
}

void Fail(std::string* errors, const char* fmt, double a, double b,
          double c = 0) {
  char buf[200];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  *errors += buf;
  *errors += "; ";
}

constexpr const char* kTableNames[] = {
    "WAREHOUSE", "DISTRICT", "CUSTOMER",   "ITEM",    "STOCK",
    "ORDERS",    "ORDER_LINE", "NEW_ORDER", "HISTORY"};

}  // namespace

TpccClients::TpccClients(TpccDatabase db, int terminals, uint64_t seed)
    : db_(std::move(db)) {
  for (int t = 0; t < terminals; ++t) {
    terminals_.push_back(
        Terminal{shoremt::Rng(seed * 0x9e3779b97f4a7c15ULL + t + 1)});
  }
}

std::vector<TableInfo> TpccClients::tables() const {
  return {db_.warehouse, db_.district,   db_.customer,
          db_.item,      db_.stock,      db_.orders,
          db_.order_line, db_.new_order, db_.history};
}

Status TpccClients::Reopen(Session* s) {
  TableInfo* slots[] = {&db_.warehouse, &db_.district,   &db_.customer,
                        &db_.item,      &db_.stock,      &db_.orders,
                        &db_.order_line, &db_.new_order, &db_.history};
  for (size_t i = 0; i < std::size(slots); ++i) {
    SHOREMT_ASSIGN_OR_RETURN(*slots[i], s->OpenTable(kTableNames[i]));
  }
  return Status::Ok();
}

uint64_t TpccClients::committed_new_orders() const {
  uint64_t n = 0;
  for (const auto& t : terminals_) n += t.new_orders;
  return n;
}

bool TpccClients::Run(Session* s, int terminal) {
  Terminal* t = &terminals_[terminal];
  uint32_t w = static_cast<uint32_t>(terminal) + 1;
  return t->rng.Uniform(2) == 0 ? NewOrder(s, t, w) : Payment(s, t, w);
}

bool TpccClients::Payment(Session* s, Terminal* t, uint32_t w) {
  const TpccConfig& cfg = db_.config;
  uint32_t d = 1 + static_cast<uint32_t>(
                       t->rng.Uniform(cfg.districts_per_warehouse));
  uint32_t c = static_cast<uint32_t>(
      t->rng.NonUniform(1023, 1, cfg.customers_per_district));
  double amount = 1.0 + t->rng.NextDouble() * 4999.0;

  if (!Timed(SpanKind::kBegin, [&] { return s->Begin(); }).ok()) return false;
  auto fail = [&] {
    (void)s->Abort();
    return false;
  };
  auto wr = Read<WarehouseRow>(s, db_.warehouse, WarehouseKey(w));
  if (!wr.ok()) return fail();
  wr->ytd += amount;
  if (!Update(s, db_.warehouse, WarehouseKey(w), *wr).ok()) return fail();

  auto dr = Read<DistrictRow>(s, db_.district, DistrictKey(w, d));
  if (!dr.ok()) return fail();
  dr->ytd += amount;
  if (!Update(s, db_.district, DistrictKey(w, d), *dr).ok()) return fail();

  uint64_t ckey = CustomerKey(w, d, c);
  auto cr = Read<CustomerRow>(s, db_.customer, ckey);
  if (!cr.ok()) return fail();
  cr->balance -= amount;
  cr->ytd_payment += amount;
  cr->payment_cnt += 1;
  if (!Update(s, db_.customer, ckey, *cr).ok()) return fail();

  HistoryRow hr{ckey, amount};
  if (!Insert(s, db_.history, HistoryKey(w, t->history_seq + 1), AsBytes(hr))
           .ok()) {
    return fail();
  }
  if (!TimedCommitAsync(s).ok()) {
    return false;
  }
  ++t->history_seq;
  ++t->payments;
  t->amount += amount;
  return true;
}

bool TpccClients::NewOrder(Session* s, Terminal* t, uint32_t w) {
  const TpccConfig& cfg = db_.config;
  uint32_t d = 1 + static_cast<uint32_t>(
                       t->rng.Uniform(cfg.districts_per_warehouse));
  uint32_t c = static_cast<uint32_t>(
      t->rng.NonUniform(1023, 1, cfg.customers_per_district));
  uint32_t ol_cnt = 5 + static_cast<uint32_t>(t->rng.Uniform(11));  // 5..15

  if (!Timed(SpanKind::kBegin, [&] { return s->Begin(); }).ok()) return false;
  auto fail = [&] {
    (void)s->Abort();
    return false;
  };
  if (!Read<WarehouseRow>(s, db_.warehouse, WarehouseKey(w)).ok()) {
    return fail();
  }
  auto dr = Read<DistrictRow>(s, db_.district, DistrictKey(w, d));
  if (!dr.ok()) return fail();
  uint32_t o_id = dr->next_o_id;
  dr->next_o_id += 1;
  if (!Update(s, db_.district, DistrictKey(w, d), *dr).ok()) return fail();
  if (!Read<CustomerRow>(s, db_.customer, CustomerKey(w, d, c)).ok()) {
    return fail();
  }
  OrderRow orow{c, ol_cnt, 20260610};
  if (!Insert(s, db_.orders, OrderKey(w, d, o_id), AsBytes(orow)).ok()) {
    return fail();
  }
  uint8_t marker = 1;
  if (!Insert(s, db_.new_order, OrderKey(w, d, o_id), {&marker, 1}).ok()) {
    return fail();
  }
  for (uint32_t l = 1; l <= ol_cnt; ++l) {
    uint32_t i_id = static_cast<uint32_t>(
        t->rng.NonUniform(8191, 1, cfg.items));
    auto ir = Read<ItemRow>(s, db_.item, ItemKey(i_id));
    if (!ir.ok()) return fail();
    uint64_t skey = StockKey(w, i_id);
    auto sr = Read<StockRow>(s, db_.stock, skey);
    if (!sr.ok()) return fail();
    uint32_t qty = 1 + static_cast<uint32_t>(t->rng.Uniform(10));
    sr->quantity = sr->quantity > qty + 10 ? sr->quantity - qty
                                           : sr->quantity + 91 - qty;
    sr->ytd += qty;
    sr->order_cnt += 1;
    if (!Update(s, db_.stock, skey, *sr).ok()) return fail();
    OrderLineRow ol{i_id, w, qty, ir->price * qty};
    if (!Insert(s, db_.order_line, OrderLineKey(w, d, o_id, l), AsBytes(ol))
             .ok()) {
      return fail();
    }
  }
  if (!TimedCommitAsync(s).ok()) {
    return false;
  }
  ++t->new_orders;
  t->order_lines += ol_cnt;
  return true;
}

bool TpccClients::Check(Session* s, std::string* errors) {
  const TpccConfig& cfg = db_.config;
  size_t before = errors->size();
  if (!s->Begin().ok()) {
    *errors += "check: Begin failed; ";
    return false;
  }
  auto io_error = [&](const char* what, const Status& st) {
    *errors += std::string("check: ") + what + ": " + st.ToString() + "; ";
    (void)s->Abort();
    return false;
  };

  uint64_t next_o_sum = 0, payments = 0, history_rows = 0;
  for (uint32_t w = 1; w <= cfg.warehouses; ++w) {
    const Terminal* term =
        w <= terminals_.size() ? &terminals_[w - 1] : nullptr;
    auto wr = ReadTpccRow<WarehouseRow>(s, db_.warehouse, WarehouseKey(w));
    if (!wr.ok()) return io_error("warehouse", wr.status());
    double d_ytd = 0;
    for (uint32_t d = 1; d <= cfg.districts_per_warehouse; ++d) {
      auto dr = ReadTpccRow<DistrictRow>(s, db_.district, DistrictKey(w, d));
      if (!dr.ok()) return io_error("district", dr.status());
      d_ytd += dr->ytd;
      next_o_sum += dr->next_o_id - 1;
    }
    double h_sum = 0;
    uint64_t h_rows = 0;
    Status st = Scan(s, db_.history, HistoryKey(w, 0), HistoryKey(w + 1, 0) - 1,
                     [&](uint64_t, std::span<const uint8_t> v) {
                       HistoryRow h;
                       if (!Decode(v, &h)) return false;
                       h_sum += h.amount;
                       ++h_rows;
                       return true;
                     });
    if (!st.ok()) return io_error("history scan", st);
    double tally = term != nullptr ? term->amount : 0.0;
    if (!Near(wr->ytd, d_ytd) || !Near(wr->ytd, h_sum) ||
        !Near(wr->ytd, tally)) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "warehouse %u: ", w);
      *errors += buf;
      Fail(errors, "W_YTD %.2f vs sum D_YTD %.2f vs sum H_AMOUNT %.2f",
           wr->ytd, d_ytd, h_sum);
      Fail(errors, "W_YTD %.2f vs committed amounts %.2f", wr->ytd, tally);
    }
    history_rows += h_rows;
    payments += term != nullptr ? term->payments : 0;
  }
  if (history_rows != payments) {
    Fail(errors, "HISTORY rows %.0f != committed Payments %.0f",
         history_rows, payments);
  }

  // ORDERS in key order, with each order's O_OL_CNT.
  std::vector<std::pair<uint64_t, uint32_t>> orders;
  Status st = Scan(s, db_.orders, 0, UINT64_MAX,
                   [&](uint64_t k, std::span<const uint8_t> v) {
                     OrderRow o;
                     if (!Decode(v, &o)) return false;
                     orders.emplace_back(k, o.ol_cnt);
                     return true;
                   });
  if (!st.ok()) return io_error("orders scan", st);
  uint64_t new_order_rows = 0;
  st = Scan(s, db_.new_order, 0, UINT64_MAX,
            [&](uint64_t, std::span<const uint8_t>) {
              ++new_order_rows;
              return true;
            });
  if (!st.ok()) return io_error("new_order scan", st);
  uint64_t committed = committed_new_orders();
  if (orders.size() != committed || orders.size() != next_o_sum ||
      orders.size() != new_order_rows) {
    Fail(errors, "ORDERS rows %.0f vs committed New-Orders %.0f vs "
         "sum(D_NEXT_O_ID-1) %.0f", orders.size(), committed, next_o_sum);
    Fail(errors, "ORDERS rows %.0f vs NEW_ORDER rows %.0f", orders.size(),
         new_order_rows);
  }

  // ORDER_LINE by scan: lines of one order are contiguous (key = order*16
  // + line), so a merge with the ORDERS list counts each order's lines.
  size_t oi = 0;
  uint64_t cur_order = 0, cur_lines = 0, line_rows = 0, bad_orders = 0;
  auto close_order = [&] {
    if (cur_lines == 0) return;
    while (oi < orders.size() && orders[oi].first < cur_order) {
      ++bad_orders;  // An order with no lines.
      ++oi;
    }
    if (oi == orders.size() || orders[oi].first != cur_order ||
        orders[oi].second != cur_lines) {
      ++bad_orders;
    } else {
      ++oi;
    }
  };
  st = Scan(s, db_.order_line, 0, UINT64_MAX,
            [&](uint64_t k, std::span<const uint8_t> v) {
              OrderLineRow ol;
              if (!Decode(v, &ol)) return false;
              if (k / 16 != cur_order) {
                close_order();
                cur_order = k / 16;
                cur_lines = 0;
              }
              ++cur_lines;
              ++line_rows;
              return true;
            });
  if (!st.ok()) return io_error("order_line scan", st);
  close_order();
  bad_orders += orders.size() - oi;
  if (bad_orders != 0) {
    Fail(errors, "%.0f orders whose ORDER_LINE scan count != O_OL_CNT (of %.0f)",
         bad_orders, orders.size());
  }

  // The same by point reads: lines 1..O_OL_CNT exist, line O_OL_CNT+1
  // does not.
  uint64_t bad_points = 0, ol_sum = 0;
  for (const auto& [okey, cnt] : orders) {
    ol_sum += cnt;
    for (uint32_t l = 1; l <= cnt + 1 && l <= 15; ++l) {
      auto r = s->Read(db_.order_line, okey * 16 + l);
      bool want = l <= cnt;
      if (r.ok() != want) {
        if (!r.ok() && !r.status().IsNotFound()) {
          return io_error("order_line read", r.status());
        }
        ++bad_points;
      }
    }
  }
  if (bad_points != 0) {
    Fail(errors, "%.0f ORDER_LINE point reads disagree with O_OL_CNT",
         bad_points, 0);
  }

  uint64_t stock_orders = 0;
  st = Scan(s, db_.stock, 0, UINT64_MAX,
            [&](uint64_t, std::span<const uint8_t> v) {
              StockRow sr;
              if (!Decode(v, &sr)) return false;
              stock_orders += sr.order_cnt;
              return true;
            });
  if (!st.ok()) return io_error("stock scan", st);
  uint64_t tally_lines = 0;
  for (const auto& t : terminals_) tally_lines += t.order_lines;
  if (stock_orders != line_rows || line_rows != ol_sum ||
      line_rows != tally_lines) {
    Fail(errors, "sum S_ORDER_CNT %.0f vs ORDER_LINE rows %.0f vs "
         "sum O_OL_CNT %.0f", stock_orders, line_rows, ol_sum);
    Fail(errors, "ORDER_LINE rows %.0f vs committed lines %.0f", line_rows,
         tally_lines);
  }
  Status cst = s->Commit();
  if (!cst.ok()) return io_error("commit", cst);
  return errors->size() == before;
}

}  // namespace perfbench
