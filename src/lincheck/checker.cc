#include "lincheck/checker.hh"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_set>

#include "common/rng.hh"

namespace whisper::lincheck
{

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Get:    return "get";
      case OpKind::Put:    return "put";
      case OpKind::Rmw:    return "rmw";
      case OpKind::Remove: return "remove";
    }
    return "?";
}

namespace
{

/**
 * Sequential KV spec. Returns false when the op's observed result is
 * illegal in state @p s; otherwise applies the op's effect. Pending
 * ops (no response) never constrain, they only mutate.
 */
bool
applyOp(const Op &op, KeyState &s)
{
    switch (op.kind) {
      case OpKind::Get:
        if (op.completed) {
            if (op.found != s.present)
                return false;
            if (op.found && op.readValue != s.value)
                return false;
        }
        return true;
      case OpKind::Put:
        s.present = true;
        s.value = op.arg;
        return true;
      case OpKind::Rmw:
        if (op.completed && op.found != s.present)
            return false;
        s.value = (s.present ? s.value : 0) + op.arg;
        s.present = true;
        return true;
      case OpKind::Remove:
        if (op.completed && op.found != s.present)
            return false;
        s.present = false;
        s.value = 0;
        return true;
    }
    return false;
}

KeyState
stateOf(const std::map<std::uint64_t, KeyState> &m, std::uint64_t key)
{
    auto it = m.find(key);
    return it == m.end() ? KeyState{} : it->second;
}

/** Wing-Gong witness search for one key's subhistory. */
struct KeySearch {
    std::vector<const Op *> ops; //!< sorted by (invokeTs, thread)
    KeyState init, target;
    bool crashed = false;
    std::uint64_t budget = 0;
    std::uint64_t visited = 0;
    bool exhausted = false;

    std::uint64_t mustMask = 0;
    std::uint64_t completedMask = 0;
    std::uint64_t activeMask = 0; //!< completed | chosen pending subset
    std::vector<std::uint64_t> pred;
    std::unordered_set<std::uint64_t> memo;

    bool run();
    int sequentialFastPath() const; //!< -1 n/a, 0 reject, 1 witness
    bool dfs(std::uint64_t placed, KeyState state, bool cutSeen);
};

/**
 * Single-threaded (or otherwise totally ordered) subhistories admit
 * exactly one linearization; simulate it directly so driver-mode
 * histories with thousands of ops per key never touch the DFS.
 */
int
KeySearch::sequentialFastPath() const
{
    const std::size_t n = ops.size();
    for (std::size_t i = 0; i < n; i++) {
        if (!ops[i]->completed)
            return -1;
        if (i + 1 < n && ops[i]->responseTs > ops[i + 1]->invokeTs)
            return -1;
    }
    std::size_t lastMustPos = 0;
    for (std::size_t i = 0; i < n; i++) {
        if (ops[i]->durable)
            lastMustPos = i + 1;
    }
    KeyState s = init;
    bool witness =
        lastMustPos == 0 && s == target && (crashed || n == 0);
    for (std::size_t i = 0; i < n; i++) {
        if (!applyOp(*ops[i], s))
            return 0;
        std::size_t cut = i + 1;
        if (cut >= lastMustPos && s == target && (crashed || cut == n))
            witness = true;
    }
    return witness ? 1 : 0;
}

bool
KeySearch::dfs(std::uint64_t placed, KeyState state, bool cutSeen)
{
    if (++visited > budget) {
        exhausted = true;
        return false;
    }
    // A crash cut is legal here when every durable op already sits in
    // the prefix and the prefix state matches the recovered probes.
    // Without a crash the only cut is the end of the history.
    if ((mustMask & ~placed) == 0 && state == target &&
        (crashed || placed == activeMask)) {
        cutSeen = true;
    }
    if (placed == activeMask)
        return cutSeen;
    std::uint64_t h = mix64(placed * 2 + (cutSeen ? 1 : 0)) ^
                      mix64(state.present ? state.value * 2 + 1 : 0);
    if (!memo.insert(h).second)
        return false;
    for (std::uint64_t rest = activeMask & ~placed; rest; rest &= rest - 1) {
        unsigned i = static_cast<unsigned>(__builtin_ctzll(rest));
        // Real-time order: all completed predecessors must be placed.
        if (pred[i] & ~placed)
            continue;
        KeyState next = state;
        if (!applyOp(*ops[i], next))
            continue;
        if (dfs(placed | (1ull << i), next, cutSeen))
            return true;
        if (exhausted)
            return false;
    }
    return false;
}

bool
KeySearch::run()
{
    const std::size_t n = ops.size();
    int fast = sequentialFastPath();
    if (fast >= 0) {
        visited += n + 1;
        return fast == 1;
    }
    if (n > 64) {
        exhausted = true;
        return false;
    }
    std::vector<unsigned> pending;
    for (std::size_t i = 0; i < n; i++) {
        const Op &op = *ops[i];
        if (op.completed)
            completedMask |= 1ull << i;
        else
            pending.push_back(static_cast<unsigned>(i));
        if (op.completed && op.durable)
            mustMask |= 1ull << i;
    }
    if (pending.size() > 12) {
        exhausted = true;
        return false;
    }
    pred.assign(n, 0);
    for (std::size_t i = 0; i < n; i++) {
        for (std::size_t j = 0; j < n; j++) {
            if (i != j && ops[j]->completed &&
                ops[j]->responseTs < ops[i]->invokeTs) {
                pred[i] |= 1ull << j;
            }
        }
    }
    // Any subset of the pending ops may have taken effect before the
    // crash; the rest are dropped as if never invoked.
    for (std::uint64_t sub = 0; sub < (1ull << pending.size()); sub++) {
        activeMask = completedMask;
        for (std::size_t b = 0; b < pending.size(); b++) {
            if (sub & (1ull << b))
                activeMask |= 1ull << pending[b];
        }
        memo.clear();
        if (dfs(0, init, false))
            return true;
        if (exhausted)
            return false;
    }
    return false;
}

} // namespace

std::uint64_t
CheckResult::digest() const
{
    std::uint64_t d = 0x11c4ec5ull;
    auto fold = [&d](std::uint64_t v) { d = mix64(d ^ v); };
    fold(keys.size());
    for (const KeyVerdict &v : keys) {
        fold(v.key);
        fold(v.ok ? 1 : 0);
        fold(v.budgetExhausted ? 1 : 0);
    }
    fold(ok ? 1 : 0);
    fold(budgetExhausted ? 1 : 0);
    return d;
}

std::string
CheckResult::brief() const
{
    std::size_t bad = 0;
    const KeyVerdict *first = nullptr;
    for (const KeyVerdict &v : keys) {
        if (!v.ok) {
            if (!first)
                first = &v;
            bad++;
        }
    }
    char buf[160];
    if (first) {
        std::snprintf(buf, sizeof(buf),
                      "violation: %zu of %zu keys lack a witness "
                      "(first key=0x%llx)",
                      bad, keys.size(),
                      static_cast<unsigned long long>(first->key));
    } else if (budgetExhausted) {
        std::snprintf(buf, sizeof(buf),
                      "ok with lincheck-budget degradation (%zu keys)",
                      keys.size());
    } else {
        std::snprintf(buf, sizeof(buf), "ok (%zu keys)", keys.size());
    }
    return buf;
}

CheckResult
check(const History &history, const CheckOptions &opts)
{
    CheckResult res;
    std::map<std::uint64_t, std::vector<const Op *>> byKey;
    for (const Op &op : history.ops)
        byKey[op.key].push_back(&op);
    std::set<std::uint64_t> keys;
    for (const auto &[key, ops] : byKey)
        keys.insert(key);
    for (const auto &[key, st] : history.initial)
        keys.insert(key);
    for (const auto &[key, st] : history.recovered)
        keys.insert(key);

    for (std::uint64_t key : keys) {
        KeySearch ks;
        auto it = byKey.find(key);
        if (it != byKey.end())
            ks.ops = it->second;
        std::stable_sort(ks.ops.begin(), ks.ops.end(),
                         [](const Op *a, const Op *b) {
                             if (a->invokeTs != b->invokeTs)
                                 return a->invokeTs < b->invokeTs;
                             return a->thread < b->thread;
                         });
        ks.init = stateOf(history.initial, key);
        ks.target = stateOf(history.recovered, key);
        ks.crashed = history.crashed;
        ks.budget = opts.nodeBudget;

        bool found = ks.run();
        res.nodesVisited += ks.visited;

        KeyVerdict v;
        v.key = key;
        if (found) {
            // witness found
        } else if (ks.exhausted) {
            v.budgetExhausted = true;
            v.why = "lincheck-budget";
            res.budgetExhausted = true;
        } else {
            std::size_t pending = 0, durable = 0;
            for (const Op *op : ks.ops) {
                pending += op->completed ? 0 : 1;
                durable += (op->completed && op->durable) ? 1 : 0;
            }
            char buf[160];
            if (ks.target.present) {
                std::snprintf(buf, sizeof(buf),
                              "no witness: %zu ops (%zu pending, %zu "
                              "durable), recovered=0x%llx",
                              ks.ops.size(), pending, durable,
                              static_cast<unsigned long long>(
                                  ks.target.value));
            } else {
                std::snprintf(buf, sizeof(buf),
                              "no witness: %zu ops (%zu pending, %zu "
                              "durable), recovered=absent",
                              ks.ops.size(), pending, durable);
            }
            v.ok = false;
            v.why = buf;
            res.ok = false;
        }
        res.keys.push_back(std::move(v));
    }
    return res;
}

History
minimizeViolation(const History &history, const CheckOptions &opts)
{
    CheckResult base = check(history, opts);
    if (base.ok)
        return history;

    std::set<std::uint64_t> bad;
    for (const KeyVerdict &v : base.keys) {
        if (!v.ok)
            bad.insert(v.key);
    }
    History m;
    m.crashed = history.crashed;
    m.threads = history.threads;
    for (const Op &op : history.ops) {
        if (bad.count(op.key))
            m.ops.push_back(op);
    }
    for (const auto &[key, st] : history.initial) {
        if (bad.count(key))
            m.initial[key] = st;
    }
    for (const auto &[key, st] : history.recovered) {
        if (bad.count(key))
            m.recovered[key] = st;
    }

    // Greedy one-op-at-a-time ddmin: cheap because only the checker
    // re-runs, never the execution.
    bool changed = true;
    int rounds = 0;
    while (changed && rounds++ < 8) {
        changed = false;
        for (std::size_t i = 0; i < m.ops.size(); i++) {
            History t = m;
            t.ops.erase(t.ops.begin() + static_cast<std::ptrdiff_t>(i));
            if (!check(t, opts).ok) {
                m = std::move(t);
                changed = true;
                if (i > 0)
                    i--;
            }
        }
    }
    return m;
}

} // namespace whisper::lincheck
