#include "core/app.hh"

#include <algorithm>

#include "common/logging.hh"

namespace whisper::core
{

const char *
accessLayerName(AccessLayer layer)
{
    switch (layer) {
      case AccessLayer::Native:       return "Native";
      case AccessLayer::LibNvml:      return "Library/NVML";
      case AccessLayer::LibMnemosyne: return "Library/Mnemosyne";
      case AccessLayer::Filesystem:   return "FS/PMFS";
      case AccessLayer::LibMod:       return "Library/MOD";
      case AccessLayer::Hybrid:       return "Hybrid/Halo";
    }
    return "?";
}

// Default workload surface: an app without one (the fuzzer's
// `faulty` demo) fails loudly on the first call.
void
WhisperApp::workloadSetup(Runtime &rt, const WorkloadKeymap &map)
{
    (void)rt;
    (void)map;
    fatal("app '%s' does not implement the workload surface",
          name().c_str());
}

bool
WhisperApp::workloadGet(pm::PmContext &ctx, ThreadId tid,
                        std::uint64_t key)
{
    (void)ctx;
    (void)tid;
    (void)key;
    fatal("app '%s' does not implement workloadGet", name().c_str());
}

void
WhisperApp::workloadPut(pm::PmContext &ctx, ThreadId tid,
                        std::uint64_t key, std::uint64_t value)
{
    (void)ctx;
    (void)tid;
    (void)key;
    (void)value;
    fatal("app '%s' does not implement workloadPut", name().c_str());
}

bool
WhisperApp::workloadRmw(pm::PmContext &ctx, ThreadId tid,
                        std::uint64_t key, std::uint64_t delta)
{
    (void)ctx;
    (void)tid;
    (void)key;
    (void)delta;
    fatal("app '%s' does not implement workloadRmw", name().c_str());
}

std::uint64_t
WhisperApp::workloadScan(pm::PmContext &ctx, ThreadId tid,
                         std::uint64_t key, std::uint64_t len)
{
    (void)ctx;
    (void)tid;
    (void)key;
    (void)len;
    fatal("app '%s' does not implement workloadScan", name().c_str());
}

bool
WhisperApp::workloadProbe(pm::PmContext &ctx, ThreadId tid,
                          std::uint64_t key, std::uint64_t &value)
{
    (void)ctx;
    (void)tid;
    (void)key;
    (void)value;
    fatal("app '%s' does not implement workloadProbe", name().c_str());
}

bool
WhisperApp::workloadRemove(pm::PmContext &ctx, ThreadId tid,
                           std::uint64_t key)
{
    (void)ctx;
    (void)tid;
    (void)key;
    fatal("app '%s' does not implement workloadRemove", name().c_str());
}

namespace
{
std::map<std::string, AppFactory> &
registry()
{
    static std::map<std::string, AppFactory> apps;
    return apps;
}
} // namespace

void
registerApp(const std::string &name, AppFactory factory)
{
    registry()[name] = std::move(factory);
}

std::unique_ptr<WhisperApp>
createApp(const std::string &name, const AppConfig &config)
{
    registerSuiteApps();
    auto it = registry().find(name);
    if (it == registry().end())
        fatal("unknown WHISPER application '%s'", name.c_str());
    return it->second(config);
}

std::vector<std::string>
registeredApps()
{
    registerSuiteApps();
    std::vector<std::string> names;
    for (const auto &[name, factory] : registry())
        names.push_back(name);
    return names;
}

} // namespace whisper::core
