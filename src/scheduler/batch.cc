#include "src/scheduler/batch.h"

#include <charconv>

namespace sarathi {

int64_t ScheduledBatch::TotalTokens() const {
  int64_t total = 0;
  for (const auto& item : items) {
    total += item.num_tokens;
  }
  return total;
}

int64_t ScheduledBatch::NumDecodes() const {
  int64_t n = 0;
  for (const auto& item : items) {
    n += item.is_decode ? 1 : 0;
  }
  return n;
}

int64_t ScheduledBatch::NumPrefillTokens() const {
  int64_t total = 0;
  for (const auto& item : items) {
    if (!item.is_decode) {
      total += item.num_tokens;
    }
  }
  return total;
}

BatchWork ScheduledBatch::ToBatchWork() const {
  BatchWork work;
  FillBatchWork(&work);
  return work;
}

void ScheduledBatch::FillBatchWork(BatchWork* work) const {
  work->sequences.clear();
  work->sequences.reserve(items.size());
  for (const auto& item : items) {
    SequenceWork seq;
    seq.is_decode = item.is_decode;
    seq.num_tokens = item.padded_tokens >= 0 ? item.padded_tokens : item.num_tokens;
    if (item.padded_context >= 0) {
      seq.context_len = item.padded_context;
    } else if (item.is_decode) {
      // KV resident before this decode: everything but the token now emitted.
      seq.context_len = item.request->context_len() - 1;
    } else {
      seq.context_len = item.request->prefill_done();
    }
    work->sequences.push_back(seq);
  }
}

std::string ScheduledBatch::Describe() const {
  std::string out;
  DescribeTo(&out);
  return out;
}

void ScheduledBatch::DescribeTo(std::string* out) const {
  auto append_int = [out](int64_t value) {
    char buffer[24];
    auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
    out->append(buffer, end);
  };
  out->clear();
  int64_t decodes = NumDecodes();
  if (decodes > 0) {
    append_int(decodes);
    out->push_back('d');
  }
  for (const auto& item : items) {
    if (item.is_decode) {
      continue;
    }
    if (!out->empty()) {
      out->push_back('+');
    }
    out->push_back('p');
    append_int(item.request->id());
    out->push_back('(');
    append_int(item.num_tokens);
    out->push_back(')');
  }
  if (out->empty()) {
    out->append("idle");
  }
}

}  // namespace sarathi
