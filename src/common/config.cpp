#include "common/config.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitutil.hpp"
#include "common/parse_number.hpp"

namespace mac3d {
namespace {

/// An unsigned integer (decimal, 0x hex or 0 octal) that fits `max`. A
/// sign, surrounding text or an overflow throws a ConfigError naming `key`
/// (std::stoull alone would wrap "-1" and skip leading blanks).
std::uint64_t parse_unsigned(const std::string& key, const std::string& value,
                             std::uint64_t max) {
  std::uint64_t parsed = 0;
  try {
    if (value.empty() || value.front() < '0' || value.front() > '9') {
      throw std::invalid_argument(value);
    }
    std::size_t pos = 0;
    parsed = std::stoull(value, &pos, 0);
    if (pos != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    throw ConfigError("invalid integer for " + key + ": '" + value + "'");
  }
  if (parsed > max) {
    throw ConfigError("value for " + key + " out of range: '" + value +
                      "' (max " + std::to_string(max) + ")");
  }
  return parsed;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  return parse_unsigned(key, value, ~std::uint64_t{0});
}

std::uint32_t parse_u32(const std::string& key, const std::string& value) {
  return static_cast<std::uint32_t>(
      parse_unsigned(key, value, ~std::uint32_t{0}));
}

double parse_f64(const std::string& key, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("invalid number for " + key + ": '" + value + "'");
  }
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "1" || value == "true" || value == "on") return true;
  if (value == "0" || value == "false" || value == "off") return false;
  throw ConfigError("invalid bool for " + key + ": '" + value + "'");
}

CoalescerPolicy parse_policy_value(const std::string& key,
                                   const std::string& value) {
  // to_kv() emits the policy as a quoted JSON string token; accept that
  // form back so the documented kv round-trip holds.
  std::string name = value;
  if (name.size() >= 2 && name.front() == '"' && name.back() == '"') {
    name = name.substr(1, name.size() - 2);
  }
  CoalescerPolicy policy = CoalescerPolicy::kMac;
  if (!parse_policy(name, policy)) {
    throw ConfigError("invalid policy for " + key + ": '" + value +
                      "' (want raw|mac|mshr|warp)");
  }
  return policy;
}

/// Parse a "<i>:<policy>[;<i>:<policy>...]" node_policies string (the
/// quoted to_kv form is accepted back, like parse_policy_value).
std::vector<std::pair<std::uint32_t, CoalescerPolicy>> parse_node_policies(
    const std::string& value) {
  std::string text = value;
  if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
    text = text.substr(1, text.size() - 2);
  }
  std::vector<std::pair<std::uint32_t, CoalescerPolicy>> entries;
  if (text.empty()) return entries;
  std::istringstream stream(text);
  std::string entry;
  while (std::getline(stream, entry, ';')) {
    const auto colon = entry.find(':');
    if (colon == std::string::npos || colon == 0) {
      throw ConfigError("invalid node_policies entry '" + entry +
                        "' (want <node>:<raw|mac|mshr|warp>)");
    }
    const std::uint32_t node =
        parse_u32("node_policies", entry.substr(0, colon));
    CoalescerPolicy policy = CoalescerPolicy::kMac;
    if (!parse_policy(entry.substr(colon + 1), policy)) {
      throw ConfigError("invalid policy in node_policies entry '" + entry +
                        "' (want raw|mac|mshr|warp)");
    }
    entries.emplace_back(node, policy);
  }
  return entries;
}

}  // namespace

CoalescerPolicy SimConfig::policy_for_node(std::uint32_t node) const {
  CoalescerPolicy result = policy;
  // Later entries win, so a CLI can append overrides.
  for (const auto& [index, entry] : parse_node_policies(node_policies)) {
    if (index == node) result = entry;
  }
  return result;
}

std::uint32_t SimConfig::max_targets_per_entry() const noexcept {
  // Entry layout (Sec. 5.3.3): 64-bit extended address + FLIT map occupy
  // 8 B + flit-map bytes; the remainder buffers 4.5 B targets.
  const double map_bytes = flits_per_row() / 8.0;
  const double avail = static_cast<double>(arq_entry_bytes) - 8.0 - map_bytes;
  if (avail <= 0) return 1;
  return static_cast<std::uint32_t>(std::floor(avail / kTargetBytes));
}

Cycle SimConfig::ns_to_cycles(double ns) const noexcept {
  return static_cast<Cycle>(std::llround(ns * cpu_ghz));
}

double SimConfig::cycles_to_ns(Cycle cycles) const noexcept {
  return static_cast<double>(cycles) / cpu_ghz;
}

void SimConfig::validate() const {
  auto require = [](bool ok, const std::string& message) {
    if (!ok) throw ConfigError(message);
  };
  require(cores >= 1 && cores <= 1024, "cores must be in [1, 1024]");
  require(cpu_ghz > 0, "cpu_ghz must be positive");
  require(nodes >= 1, "nodes must be >= 1");
  require(is_pow2(row_bytes) && row_bytes >= 2 * kFlitBytes,
          "row_bytes must be a power of two >= 32");
  require(row_bytes <= 4096, "row_bytes must be <= 4096");
  require(is_pow2(vaults), "vaults must be a power of two");
  require(is_pow2(banks_per_vault), "banks_per_vault must be a power of two");
  require(is_pow2(hmc_capacity), "hmc_capacity must be a power of two");
  require(hmc_capacity >= static_cast<std::uint64_t>(row_bytes) * total_banks(),
          "hmc_capacity too small for vault/bank/row geometry");
  require(hmc_links >= 1 && is_pow2(hmc_links),
          "hmc_links must be a power of two >= 1");
  require(hmc_links <= vaults, "hmc_links must not exceed vaults");
  require(arq_entries >= 2, "arq_entries must be >= 2");
  require(arq_entry_bytes >= 16, "arq_entry_bytes must be >= 16");
  require(arq_pop_interval >= 1, "arq_pop_interval must be >= 1");
  require(is_pow2(builder_min_bytes) && builder_min_bytes >= kFlitBytes,
          "builder_min_bytes must be a power of two >= 16");
  require(builder_max_bytes == row_bytes,
          "builder_max_bytes must equal row_bytes (one row per packet)");
  require(builder_min_bytes <= builder_max_bytes,
          "builder_min_bytes must be <= builder_max_bytes");
  require(vault_queue_depth >= 1, "vault_queue_depth must be >= 1");
  require(link_queue_depth >= 1, "link_queue_depth must be >= 1");
  require(queue_depth >= 1, "queue_depth must be >= 1");
  require(t_link_flit >= 1, "t_link_flit must be >= 1");
  require(t_refi == 0 || t_rfc < t_refi,
          "t_rfc must be smaller than t_refi (or t_refi 0 to disable)");
  require(mshr_entries >= 1, "mshr_entries must be >= 1");
  require(is_pow2(mshr_block_bytes) && mshr_block_bytes >= kFlitBytes &&
              mshr_block_bytes <= kMaxPacketDataBytes,
          "mshr_block_bytes must be a power of two in [16, 256]");
  require(warp_lanes >= 1 && warp_lanes <= 64,
          "warp_lanes must be in [1, 64]");
  require(is_pow2(warp_block_bytes) && warp_block_bytes >= kFlitBytes &&
              warp_block_bytes <= kMaxPacketDataBytes,
          "warp_block_bytes must be a power of two in [16, 256]");
  // Warp merges must stay inside one DRAM row (one packet == one row
  // visit, same contract the builder obeys), so blocks must nest in rows.
  require(warp_block_bytes <= row_bytes &&
              row_bytes % warp_block_bytes == 0,
          "warp_block_bytes must divide row_bytes");
  require(warp_window_cycles >= 1, "warp_window_cycles must be >= 1");
  // Parses or throws; every listed node must exist in this system.
  for (const auto& [index, entry] : parse_node_policies(node_policies)) {
    (void)entry;
    require(index < nodes, "node_policies references node " +
                               std::to_string(index) + " but nodes = " +
                               std::to_string(nodes));
  }
}

void SimConfig::parse_overrides(
    const std::map<std::string, std::string>& kv) {
  using Setter =
      std::function<void(const std::string& key, const std::string& value)>;
  auto u32 = [](std::uint32_t& field) -> Setter {
    return [&field](const std::string& key, const std::string& value) {
      field = parse_u32(key, value);
    };
  };
  auto u64 = [](std::uint64_t& field) -> Setter {
    return [&field](const std::string& key, const std::string& value) {
      field = parse_u64(key, value);
    };
  };
  auto f64 = [](double& field) -> Setter {
    return [&field](const std::string& key, const std::string& value) {
      field = parse_f64(key, value);
    };
  };
  auto flag = [](bool& field) -> Setter {
    return [&field](const std::string& key, const std::string& value) {
      field = parse_bool(key, value);
    };
  };
  const std::map<std::string, Setter> setters = {
      {"cores", u32(cores)},
      {"cpu_ghz", f64(cpu_ghz)},
      {"spm_bytes", u64(spm_bytes)},
      {"spm_latency_ns", f64(spm_latency_ns)},
      {"nodes", u32(nodes)},
      {"hmc_links", u32(hmc_links)},
      {"hmc_capacity", u64(hmc_capacity)},
      {"row_bytes",
       [this](const std::string& key, const std::string& value) {
         row_bytes = parse_u32(key, value);
         builder_max_bytes = row_bytes;
       }},
      {"vaults", u32(vaults)},
      {"banks_per_vault", u32(banks_per_vault)},
      {"vault_queue_depth", u32(vault_queue_depth)},
      {"link_queue_depth", u32(link_queue_depth)},
      {"t_link_flit", u32(t_link_flit)},
      {"t_serdes", u32(t_serdes)},
      {"t_vault_ctrl", u32(t_vault_ctrl)},
      {"t_bank_access", u32(t_bank_access)},
      {"t_bank_precharge", u32(t_bank_precharge)},
      {"t_row_data_flit", u32(t_row_data_flit)},
      {"t_refi", u32(t_refi)},
      {"t_rfc", u32(t_rfc)},
      {"open_page", flag(open_page)},
      {"t_bank_activate", u32(t_bank_activate)},
      {"t_bank_cas", u32(t_bank_cas)},
      {"arq_entries", u32(arq_entries)},
      {"arq_entry_bytes", u32(arq_entry_bytes)},
      {"arq_pop_interval", u32(arq_pop_interval)},
      {"builder_min_bytes", u32(builder_min_bytes)},
      {"fill_fast_enabled", flag(fill_fast_enabled)},
      {"mac_enabled", flag(mac_enabled)},
      {"policy",
       [this](const std::string& key, const std::string& value) {
         policy = parse_policy_value(key, value);
       }},
      {"node_policies",
       [this](const std::string&, const std::string& value) {
         // Parse eagerly so malformed strings fail at the override site;
         // quotes are stripped like parse_policy_value.
         std::string text = value;
         if (text.size() >= 2 && text.front() == '"' && text.back() == '"') {
           text = text.substr(1, text.size() - 2);
         }
         (void)parse_node_policies(text);
         node_policies = text;
       }},
      {"mshr_entries", u32(mshr_entries)},
      {"mshr_block_bytes", u32(mshr_block_bytes)},
      {"warp_lanes", u32(warp_lanes)},
      {"warp_block_bytes", u32(warp_block_bytes)},
      {"warp_window_cycles", u32(warp_window_cycles)},
      {"remote_hop_cycles", u32(remote_hop_cycles)},
      {"queue_depth", u32(queue_depth)},
  };

  for (const auto& [key, value] : kv) {
    const auto it = setters.find(key);
    if (it == setters.end()) throw ConfigError("unknown config key: " + key);
    it->second(key, value);
  }
}

void SimConfig::parse_override_string(const std::string& text) {
  std::map<std::string, std::string> kv;
  std::string token;
  std::istringstream stream(text);
  while (std::getline(stream, token, ',')) {
    // Also allow whitespace-separated pairs inside a comma token.
    std::istringstream inner(token);
    std::string pair;
    while (inner >> pair) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw ConfigError("expected key=value, got '" + pair + "'");
      }
      kv[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  parse_overrides(kv);
}

void SimConfig::apply_env() {
  if (const char* overrides = std::getenv("MAC3D_CONFIG")) {
    parse_override_string(overrides);
  }
}

std::map<std::string, std::string> SimConfig::to_kv() const {
  auto u = [](std::uint64_t value) { return std::to_string(value); };
  auto f = [](double value) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return std::string(buf);
  };
  auto b = [](bool value) { return std::string(value ? "true" : "false"); };
  // Keep this list in lock-step with the parse_overrides() setters map.
  return {
      {"cores", u(cores)},
      {"cpu_ghz", f(cpu_ghz)},
      {"spm_bytes", u(spm_bytes)},
      {"spm_latency_ns", f(spm_latency_ns)},
      {"nodes", u(nodes)},
      {"hmc_links", u(hmc_links)},
      {"hmc_capacity", u(hmc_capacity)},
      {"row_bytes", u(row_bytes)},
      {"vaults", u(vaults)},
      {"banks_per_vault", u(banks_per_vault)},
      {"vault_queue_depth", u(vault_queue_depth)},
      {"link_queue_depth", u(link_queue_depth)},
      {"t_link_flit", u(t_link_flit)},
      {"t_serdes", u(t_serdes)},
      {"t_vault_ctrl", u(t_vault_ctrl)},
      {"t_bank_access", u(t_bank_access)},
      {"t_bank_precharge", u(t_bank_precharge)},
      {"t_row_data_flit", u(t_row_data_flit)},
      {"t_refi", u(t_refi)},
      {"t_rfc", u(t_rfc)},
      {"open_page", b(open_page)},
      {"t_bank_activate", u(t_bank_activate)},
      {"t_bank_cas", u(t_bank_cas)},
      {"arq_entries", u(arq_entries)},
      {"arq_entry_bytes", u(arq_entry_bytes)},
      {"arq_pop_interval", u(arq_pop_interval)},
      {"builder_min_bytes", u(builder_min_bytes)},
      {"fill_fast_enabled", b(fill_fast_enabled)},
      {"mac_enabled", b(mac_enabled)},
      // Quoted: to_kv() values are JSON value tokens (see RunReport).
      {"policy", '"' + std::string(to_string(policy)) + '"'},
      {"node_policies", '"' + node_policies + '"'},
      {"mshr_entries", u(mshr_entries)},
      {"mshr_block_bytes", u(mshr_block_bytes)},
      {"warp_lanes", u(warp_lanes)},
      {"warp_block_bytes", u(warp_block_bytes)},
      {"warp_window_cycles", u(warp_window_cycles)},
      {"remote_hop_cycles", u(remote_hop_cycles)},
      {"queue_depth", u(queue_depth)},
  };
}

std::string SimConfig::to_table() const {
  std::ostringstream out;
  out << "Parameter                | Value\n"
      << "-------------------------+---------------------------\n"
      << "ISA (traced)             | RV64-equivalent native kernels\n"
      << "Core #                   | " << cores << "\n"
      << "CPU Frequency            | " << cpu_ghz << " GHz\n"
      << "SPM                      | " << (spm_bytes >> 20)
      << " MB per core\n"
      << "Avg. SPM Access Latency  | " << spm_latency_ns << " ns\n"
      << "HMC                      | " << hmc_links << " Links, "
      << (hmc_capacity >> 30) << " GB, " << row_bytes << "B-block\n"
      << "Vaults x Banks           | " << vaults << " x " << banks_per_vault
      << " (" << total_banks() << " banks)\n"
      << "ARQ                      | " << arq_entries << " entries, "
      << arq_entry_bytes << "B per entry\n"
      << "Builder packet sizes     | " << builder_min_bytes << "B - "
      << builder_max_bytes << "B\n";
  return out.str();
}

template <typename T>
T env_number(const char* name, T fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  T value{};
  if (!parse_number(raw, value) || !(value > 0)) {
    throw ConfigError(std::string(name) + " must be a positive " +
                      (std::is_floating_point_v<T> ? "finite number"
                                                   : "integer") +
                      ", got '" + raw + "'");
  }
  return value;
}

template double env_number<double>(const char*, double);
template std::uint32_t env_number<std::uint32_t>(const char*, std::uint32_t);

}  // namespace mac3d
