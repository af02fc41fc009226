#include "src/simulator/telemetry.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

namespace sarathi {

std::string CsvEscape(const std::string& value) {
  if (value.find_first_of(",\"\n\r") == std::string::npos) {
    return value;
  }
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"') {
      quoted += '"';
    }
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

void WriteIterationLogCsv(const SimResult& result, std::ostream& out) {
  out << "iter,start_s,stage_time_s,exit_s,total_tokens,num_decodes,prefill_tokens,"
         "description\n";
  for (size_t i = 0; i < result.iterations.size(); ++i) {
    const IterationRecord& it = result.iterations[i];
    out << i << ',' << it.start_s << ',' << it.stage_time_s << ',' << it.exit_s << ','
        << it.total_tokens << ',' << it.num_decodes << ',' << it.prefill_tokens << ','
        << CsvEscape(it.description) << '\n';
  }
}

void WriteRequestMetricsCsv(const SimResult& result, std::ostream& out) {
  out << "id,arrival_s,scheduling_delay_s,ttft_s,completion_s,latency_s,num_tokens,"
         "p99_tbt_s,max_tbt_s,preemptions,deadline_s,failed_s,failure,retries,"
         "wasted_tokens,hedges,migrations,cached_prefill_tokens\n";
  std::vector<double> tbt;  // One request's gaps; reused across rows.
  for (const RequestMetrics& r : result.requests) {
    tbt.clear();
    r.ForEachTbt([&](double gap) { tbt.push_back(gap); });
    double max_tbt = tbt.empty() ? 0.0 : *std::max_element(tbt.begin(), tbt.end());
    double p99 = tbt.empty() ? 0.0 : SelectQuantile(tbt, 0.99);
    double latency = r.completed() ? r.completion_s - r.arrival_s : -1.0;
    out << r.id << ',' << r.arrival_s << ',' << r.SchedulingDelay() << ',' << r.Ttft() << ','
        << r.completion_s << ',' << latency << ',' << r.token_times_s.size() << ',' << p99
        << ',' << max_tbt << ',' << r.preemptions << ',' << r.deadline_s << ',' << r.failed_s
        << ',' << FailureKindName(r.failure) << ',' << r.retries << ',' << r.wasted_tokens
        << ',' << r.hedges << ',' << r.migrations << ',' << r.cached_prefill_tokens << '\n';
  }
}

void WriteTbtSamplesCsv(const SimResult& result, std::ostream& out) {
  out << "request_id,token_index,tbt_s\n";
  for (const RequestMetrics& r : result.requests) {
    size_t index = 0;
    r.ForEachTbt([&](double gap) { out << r.id << ',' << ++index << ',' << gap << '\n'; });
  }
}

void WriteAggregateCsv(const SimResult& result, std::ostream& out) {
  out << "metric,value\n";
  out << "scheduler," << CsvEscape(result.scheduler_name) << '\n';
  out << "requests," << result.requests.size() << '\n';
  out << "iterations," << result.num_iterations << '\n';
  out << "preemptions," << result.num_preemptions << '\n';
  out << "makespan_s," << result.makespan_s << '\n';
  out << "median_ttft_s," << result.MedianTtft() << '\n';
  out << "p99_tbt_s," << result.P99Tbt() << '\n';
  out << "max_tbt_s," << result.MaxTbt() << '\n';
  out << "median_scheduling_delay_s," << result.MedianSchedulingDelay() << '\n';
  out << "output_tokens," << result.total_output_tokens << '\n';
  out << "prefill_tokens," << result.total_prefill_tokens << '\n';
  out << "output_tokens_per_s," << result.OutputTokenThroughput() << '\n';
  out << "mfu," << result.Mfu() << '\n';
  out << "mbu," << result.Mbu() << '\n';
  out << "bubble_fraction," << result.BubbleFraction() << '\n';
  out << "good_requests," << result.CountGood() << '\n';
  out << "goodput_per_s," << result.Goodput() << '\n';
  out << "failed_requests," << result.CountFailed() << '\n';
  out << "timeout_requests," << result.CountFailed(FailureKind::kTimeout) << '\n';
  out << "crash_failed_requests," << result.CountFailed(FailureKind::kReplicaCrash) << '\n';
  out << "shed_requests," << result.num_shed << '\n';
  out << "retries," << result.TotalRetries() << '\n';
  out << "lost_output_tokens," << result.lost_output_tokens << '\n';
  out << "outages," << result.num_outages << '\n';
  out << "downtime_s," << result.downtime_s << '\n';
  out << "slowdown_episodes," << result.num_slowdown_episodes << '\n';
  out << "degraded_s," << result.degraded_s << '\n';
  out << "degraded_iterations," << result.degraded_iterations << '\n';
  out << "probe_transitions," << result.probe_transitions << '\n';
  out << "hedges_issued," << result.hedges_issued << '\n';
  out << "hedges_won," << result.hedges_won << '\n';
  out << "hedges_cancelled," << result.hedges_cancelled << '\n';
  out << "migrations," << result.migrations << '\n';
  out << "migrations_cancelled," << result.migrations_cancelled << '\n';
  out << "drain_failovers," << result.drain_failovers << '\n';
  out << "migrated_kv_bytes," << result.migrated_kv_bytes << '\n';
  out << "wasted_recompute_tokens," << result.WastedRecomputeTokens() << '\n';
  out << "shed_admission," << result.num_shed_admission << '\n';
  out << "shed_queue," << result.num_shed_queue << '\n';
  out << "browned_out," << result.num_browned_out << '\n';
  out << "overload_transitions," << result.overload_transitions << '\n';
  out << "retries_denied," << result.num_retries_denied << '\n';
  out << "hedges_suppressed," << result.num_hedges_suppressed << '\n';
  out << "backpressure_skips," << result.num_backpressure_skips << '\n';
  out << "kv_peak_blocks_in_use," << result.peak_kv_blocks << '\n';
  out << "kv_total_blocks," << result.total_kv_blocks << '\n';
  out << "kv_peak_utilization," << result.PeakKvUtilization() << '\n';
  out << "prefix_lookups," << result.prefix_lookups << '\n';
  out << "prefix_hits," << result.prefix_hits << '\n';
  out << "prefix_hit_rate,"
      << (result.prefix_lookups > 0
              ? static_cast<double>(result.prefix_hits) /
                    static_cast<double>(result.prefix_lookups)
              : 0.0)
      << '\n';
  out << "cached_prefill_tokens," << result.cached_prefill_tokens << '\n';
  out << "prefix_evictions," << result.prefix_evictions << '\n';
  out << "kv_peak_cached_blocks," << result.peak_cached_blocks << '\n';
  out << "domain_faults," << result.num_domain_faults << '\n';
  out << "partitions," << result.num_partitions << '\n';
  out << "partitioned_s," << result.partitioned_s << '\n';
  out << "partition_redispatches," << result.partition_redispatches << '\n';
  out << "partition_reconciled," << result.partition_reconciled << '\n';
  out << "cascade_sheds," << result.cascade_sheds << '\n';
  out << "cascade_engaged_s," << result.cascade_engaged_s << '\n';
  out << "slow_start_admits," << result.slow_start_admits << '\n';
  out << "timeout_retries," << result.timeout_retries << '\n';
  // Autoscale rows appear only for autoscaled runs, mirroring the
  // domains.csv pattern: runs without the feature keep producing exactly the
  // bytes they always did.
  if (result.peak_provisioned_replicas > 0) {
    out << "autoscale_events," << result.autoscale_events << '\n';
    out << "autoscale_out," << result.autoscale_out << '\n';
    out << "autoscale_in," << result.autoscale_in << '\n';
    out << "peak_provisioned_replicas," << result.peak_provisioned_replicas << '\n';
    out << "replica_seconds_provisioned," << result.replica_seconds_provisioned << '\n';
    out << "autoscale_cost_gpu_s," << result.autoscale_cost_gpu_s << '\n';
  }
}

void WriteDomainStatusCsv(const SimResult& result, std::ostream& out) {
  out << "domain,num_replicas,crashes,partitions,down_s,partitioned_s\n";
  for (const DomainStatus& d : result.domains) {
    out << d.domain << ',' << d.num_replicas << ',' << d.crashes << ',' << d.partitions
        << ',' << d.down_s << ',' << d.partitioned_s << '\n';
  }
}

void ReplaySloFromResult(const SimResult& result, SloMonitor* slo) {
  if (slo == nullptr || !slo->enabled()) {
    return;
  }
  struct Event {
    double t;
    SloSignal signal;
    QosClass qos;
    double value;  // latency sample for kTtft/kTbt; unused for outcomes
    bool is_outcome;
    bool good;
  };
  std::vector<Event> events;
  for (const RequestMetrics& r : result.requests) {
    if (!r.token_times_s.empty()) {
      double first = r.token_times_s.front();
      events.push_back({first, SloSignal::kTtft, r.qos, first - r.arrival_s, false, false});
      for (size_t i = 1; i < r.token_times_s.size(); ++i) {
        events.push_back({r.token_times_s[i], SloSignal::kTbt, r.qos,
                          r.token_times_s[i] - r.token_times_s[i - 1], false, false});
      }
    }
    if (r.completed()) {
      events.push_back({r.completion_s, SloSignal::kGoodput, r.qos, 0.0, true, r.good()});
    } else if (r.failed()) {
      events.push_back({r.failed_s, SloSignal::kGoodput, r.qos, 0.0, true, false});
    }
  }
  // The monitor's clock only moves forward; a time-sorted replay lands every
  // sample in its own burn-rate bucket instead of the tail one.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  for (const Event& e : events) {
    if (e.is_outcome) {
      slo->RecordOutcome(e.qos, e.good, e.t);
    } else {
      slo->RecordLatency(e.signal, e.qos, e.value, e.t);
    }
  }
  slo->AdvanceTo(result.makespan_s);
}

Status ExportTelemetry(const SimResult& result, const std::string& directory,
                       const std::string& prefix) {
  struct Section {
    const char* suffix;
    void (*writer)(const SimResult&, std::ostream&);
  };
  const Section sections[] = {
      {"iterations", &WriteIterationLogCsv},
      {"requests", &WriteRequestMetricsCsv},
      {"tbt", &WriteTbtSamplesCsv},
      {"aggregate", &WriteAggregateCsv},
  };
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (ec) {
    return InternalError("cannot create directory " + directory + ": " + ec.message());
  }
  for (const Section& section : sections) {
    std::string path = directory + "/" + prefix + "_" + section.suffix + ".csv";
    std::ofstream out(path);
    if (!out) {
      return InternalError("cannot open " + path + " for writing");
    }
    section.writer(result, out);
    if (!out) {
      return InternalError("write failed for " + path);
    }
  }
  // Per-domain status rows exist only for runs with failure domains
  // configured; runs without them keep producing exactly the four files
  // they always did.
  if (!result.domains.empty()) {
    std::string path = directory + "/" + prefix + "_domains.csv";
    std::ofstream out(path);
    if (!out) {
      return InternalError("cannot open " + path + " for writing");
    }
    WriteDomainStatusCsv(result, out);
    if (!out) {
      return InternalError("write failed for " + path);
    }
  }
  return Status::Ok();
}

}  // namespace sarathi
