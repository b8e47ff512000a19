#include "src/obs/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>

namespace miniphi::obs {

namespace {

/// Per-(isa, path, kernel) accumulator filled from the snapshot.
struct KernelRow {
  std::int64_t calls = 0;
  std::int64_t sites = 0;
  std::int64_t sites_represented = 0;
  std::int64_t bytes = 0;
  double seconds = 0.0;
  bool any = false;
};

std::vector<std::string_view> split(std::string_view name, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t pos = name.find(sep);
    if (pos == std::string_view::npos) {
      parts.push_back(name);
      return parts;
    }
    parts.push_back(name.substr(0, pos));
    name.remove_prefix(pos + 1);
  }
}

void append_line(std::string& out, const char* format, auto... args) {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer), format, args...);
  out += buffer;
  out += '\n';
}

std::string human_bytes(std::int64_t bytes) {
  char buffer[32];
  const double b = static_cast<double>(bytes);
  if (bytes >= (std::int64_t{1} << 30)) {
    std::snprintf(buffer, sizeof(buffer), "%.2f GiB", b / (1ULL << 30));
  } else if (bytes >= (std::int64_t{1} << 20)) {
    std::snprintf(buffer, sizeof(buffer), "%.2f MiB", b / (1ULL << 20));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%lld B", static_cast<long long>(bytes));
  }
  return buffer;
}

}  // namespace

std::string render_kernel_report(const std::vector<MetricSnapshot>& snapshot) {
  // Group the PLF metrics; everything else falls through to later sections.
  std::map<std::string, KernelRow> rows;  // key: "<isa>.<path>.<kernel>"
  std::map<std::string, std::pair<std::int64_t, double>> collectives;  // calls, wait s
  double pool_compute = 0.0;
  double pool_wait = 0.0;
  std::int64_t scaling_events = 0;
  std::vector<const MetricSnapshot*> plans;
  std::vector<const MetricSnapshot*> grad;
  std::vector<const MetricSnapshot*> mem;
  std::vector<const MetricSnapshot*> sdc;
  std::vector<const MetricSnapshot*> elastic;
  std::vector<const MetricSnapshot*> svc;
  std::map<std::string, std::vector<const MetricSnapshot*>> svc_tenants;
  std::vector<const MetricSnapshot*> other;

  for (const MetricSnapshot& metric : snapshot) {
    const std::vector<std::string_view> parts = split(metric.name, '.');
    if (parts.size() == 5 && parts[0] == "plf") {
      const std::string key =
          std::string(parts[1]) + "." + std::string(parts[2]) + "." + std::string(parts[3]);
      KernelRow& row = rows[key];
      const std::string_view field = parts[4];
      if (field == "calls") {
        row.calls = metric.value;
      } else if (field == "sites") {
        row.sites = metric.value;
      } else if (field == "sites_rep") {
        row.sites_represented = metric.value;
      } else if (field == "bytes") {
        row.bytes = metric.value;
      } else if (field == "ns" && metric.kind == MetricKind::kHistogram) {
        row.seconds = static_cast<double>(metric.histogram.sum) * 1e-9;
      } else {
        other.push_back(&metric);
        continue;
      }
      row.any = true;
    } else if (metric.name == "plf.scaling_events") {
      scaling_events = metric.value;
    } else if (metric.name == "pool.compute_seconds_us") {
      pool_compute = static_cast<double>(metric.value) * 1e-6;
    } else if (metric.name == "pool.wait_seconds_us") {
      pool_wait = static_cast<double>(metric.value) * 1e-6;
    } else if (parts[0] == "plan" || (parts.size() >= 2 && parts[0] == "dist" && parts[1] == "plan")) {
      plans.push_back(&metric);
    } else if (parts[0] == "grad") {
      grad.push_back(&metric);
    } else if (parts[0] == "mem") {
      mem.push_back(&metric);
    } else if (parts[0] == "sdc") {
      sdc.push_back(&metric);
    } else if (parts[0] == "elastic" || parts[0] == "ckpt") {
      elastic.push_back(&metric);
    } else if (parts[0] == "svc") {
      // Tenant counters are svc.tenant.<id>.<counter>; tenant ids cannot
      // contain '.' (EvaluationService::register_tenant rejects them), so
      // the split is unambiguous.  Everything else is service-level.
      if (parts.size() == 4 && parts[1] == "tenant") {
        svc_tenants[std::string(parts[2])].push_back(&metric);
      } else {
        svc.push_back(&metric);
      }
    } else if (parts.size() == 3 && parts[0] == "mpi") {
      auto& entry = collectives[std::string(parts[1])];
      if (parts[2] == "calls") {
        entry.first = metric.value;
      } else if (parts[2] == "wait_us") {
        entry.second = static_cast<double>(metric.value) * 1e-6;
      } else {
        other.push_back(&metric);
      }
    } else {
      other.push_back(&metric);
    }
  }

  std::string out;
  out += "=== miniphi kernel report ===\n";
  if (rows.empty()) {
    out += "(no kernel metrics recorded; run with metrics on)\n";
  } else {
    append_line(out, "%-34s %10s %14s %14s %10s %9s %12s", "kernel (isa.path.name)", "calls",
                "sites", "sites-rep", "time[s]", "Msites/s", "CLA bytes");
    double total_seconds = 0.0;
    for (const auto& [key, row] : rows) {
      if (!row.any) continue;
      const double msites =
          row.seconds > 0.0 ? static_cast<double>(row.sites) / row.seconds * 1e-6 : 0.0;
      append_line(out, "%-34s %10lld %14lld %14lld %10.3f %9.1f %12s", key.c_str(),
                  static_cast<long long>(row.calls), static_cast<long long>(row.sites),
                  static_cast<long long>(row.sites_represented), row.seconds, msites,
                  human_bytes(row.bytes).c_str());
      total_seconds += row.seconds;
    }
    append_line(out, "%-34s %10s %14s %14s %10.3f", "total", "", "", "", total_seconds);
    if (scaling_events > 0) {
      append_line(out, "scaling events: %lld", static_cast<long long>(scaling_events));
    }
  }

  if (pool_compute > 0.0 || pool_wait > 0.0) {
    out += "--- fork-join pool ---\n";
    const double total = pool_compute + pool_wait;
    append_line(out, "compute: %.3f s  barrier-wait: %.3f s  (%.1f%% wait)", pool_compute,
                pool_wait, total > 0.0 ? pool_wait / total * 100.0 : 0.0);
  }

  if (!plans.empty()) {
    out += "--- traversal plans ---\n";
    std::sort(plans.begin(), plans.end(),
              [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
    for (const MetricSnapshot* metric : plans) {
      if (metric->kind == MetricKind::kHistogram) {
        const double mean = metric->histogram.count > 0
                                ? static_cast<double>(metric->histogram.sum) /
                                      static_cast<double>(metric->histogram.count)
                                : 0.0;
        append_line(out, "%-40s count=%-10lld mean=%.1f", metric->name.c_str(),
                    static_cast<long long>(metric->histogram.count), mean);
      } else {
        append_line(out, "%-40s %lld", metric->name.c_str(),
                    static_cast<long long>(metric->value));
      }
    }
  }

  if (!grad.empty()) {
    // All-branch gradient smoothing (search::smooth_branches): sweeps and
    // edges count the O(N) two-pass updates; fallbacks count hand-overs to
    // the per-branch Newton path.
    out += "--- gradient smoothing ---\n";
    std::sort(grad.begin(), grad.end(),
              [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
    for (const MetricSnapshot* metric : grad) {
      if (metric->kind == MetricKind::kHistogram) {
        const double mean_ms = metric->histogram.count > 0
                                   ? static_cast<double>(metric->histogram.sum) /
                                         static_cast<double>(metric->histogram.count) * 1e-6
                                   : 0.0;
        append_line(out, "%-40s count=%-10lld mean=%.2f ms", metric->name.c_str(),
                    static_cast<long long>(metric->histogram.count), mean_ms);
      } else {
        append_line(out, "%-40s %lld", metric->name.c_str(),
                    static_cast<long long>(metric->value));
      }
    }
  }

  if (!mem.empty()) {
    // The CLA store (DESIGN.md §14): evictions drop CLAs, and recomputes
    // count the dropped plan inputs rebuilt through a nested subplan.
    out += "--- memory tier ---\n";
    std::sort(mem.begin(), mem.end(),
              [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
    for (const MetricSnapshot* metric : mem) {
      append_line(out, "%-40s %lld", metric->name.c_str(), static_cast<long long>(metric->value));
    }
  }

  if (!sdc.empty()) {
    out += "--- sdc defense ---\n";
    std::sort(sdc.begin(), sdc.end(),
              [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
    for (const MetricSnapshot* metric : sdc) {
      if (metric->kind == MetricKind::kHistogram) {
        const double mean_us = metric->histogram.count > 0
                                   ? static_cast<double>(metric->histogram.sum) /
                                         static_cast<double>(metric->histogram.count) * 1e-3
                                   : 0.0;
        append_line(out, "%-40s count=%-10lld mean=%.1f us", metric->name.c_str(),
                    static_cast<long long>(metric->histogram.count), mean_us);
      } else {
        append_line(out, "%-40s %lld", metric->name.c_str(),
                    static_cast<long long>(metric->value));
      }
    }
  }

  if (!elastic.empty()) {
    out += "--- elastic recovery ---\n";
    std::sort(elastic.begin(), elastic.end(),
              [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
    for (const MetricSnapshot* metric : elastic) {
      if (metric->kind == MetricKind::kHistogram) {
        const double mean_us = metric->histogram.count > 0
                                   ? static_cast<double>(metric->histogram.sum) /
                                         static_cast<double>(metric->histogram.count)
                                   : 0.0;
        append_line(out, "%-40s count=%-10lld mean=%.1f us", metric->name.c_str(),
                    static_cast<long long>(metric->histogram.count), mean_us);
      } else {
        append_line(out, "%-40s %lld", metric->name.c_str(),
                    static_cast<long long>(metric->value));
      }
    }
  }

  if (!svc.empty() || !svc_tenants.empty()) {
    // Evaluation service (DESIGN.md §15).  Tenants render as their own
    // sub-sections, sorted by tenant id (std::map order) with counters
    // sorted by name inside each — the report is deterministic no matter
    // what order tenants registered or jobs finished in.
    out += "--- service ---\n";
    std::sort(svc.begin(), svc.end(),
              [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
    for (const MetricSnapshot* metric : svc) {
      if (metric->kind == MetricKind::kHistogram) {
        const double mean_us = metric->histogram.count > 0
                                   ? static_cast<double>(metric->histogram.sum) /
                                         static_cast<double>(metric->histogram.count)
                                   : 0.0;
        append_line(out, "%-40s count=%-10lld mean=%.1f us", metric->name.c_str(),
                    static_cast<long long>(metric->histogram.count), mean_us);
      } else if (metric->name == "svc.budget.in_use_bytes") {
        append_line(out, "%-40s %s", metric->name.c_str(), human_bytes(metric->value).c_str());
      } else {
        append_line(out, "%-40s %lld", metric->name.c_str(),
                    static_cast<long long>(metric->value));
      }
    }
    for (auto& [tenant, metrics] : svc_tenants) {
      append_line(out, "tenant %s:", tenant.c_str());
      std::sort(metrics.begin(), metrics.end(),
                [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
      for (const MetricSnapshot* metric : metrics) {
        append_line(out, "  %-38s %lld", metric->name.c_str(),
                    static_cast<long long>(metric->value));
      }
    }
  }

  if (!collectives.empty()) {
    out += "--- minimpi collectives ---\n";
    append_line(out, "%-16s %10s %12s", "collective", "calls", "wait[s]");
    for (const auto& [name, entry] : collectives) {
      append_line(out, "%-16s %10lld %12.3f", name.c_str(),
                  static_cast<long long>(entry.first), entry.second);
    }
  }

  if (!other.empty()) {
    out += "--- other metrics ---\n";
    std::sort(other.begin(), other.end(),
              [](const MetricSnapshot* a, const MetricSnapshot* b) { return a->name < b->name; });
    for (const MetricSnapshot* metric : other) {
      if (metric->kind == MetricKind::kHistogram) {
        append_line(out, "%-40s count=%lld sum=%lld", metric->name.c_str(),
                    static_cast<long long>(metric->histogram.count),
                    static_cast<long long>(metric->histogram.sum));
      } else {
        append_line(out, "%-40s %lld", metric->name.c_str(),
                    static_cast<long long>(metric->value));
      }
    }
  }
  return out;
}

std::string render_kernel_report() {
  return render_kernel_report(Registry::instance().snapshot());
}

}  // namespace miniphi::obs
