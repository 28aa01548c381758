#include "common/rng.hh"

#include <cmath>

#include "common/logging.hh"

namespace whisper
{

namespace
{
std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}
} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

Rng::result_type
Rng::operator()()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

std::uint64_t
Rng::next(std::uint64_t bound)
{
    panic_if(bound == 0, "Rng::next(0)");
    // Lemire's multiply-shift bounded generation (no modulo bias for
    // the bound sizes used here).
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>((*this)()) * bound) >> 64);
}

std::uint64_t
Rng::range(std::uint64_t lo, std::uint64_t hi)
{
    panic_if(lo > hi, "Rng::range with lo > hi");
    return lo + next(hi - lo + 1);
}

double
Rng::nextDouble()
{
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool
Rng::chance(double p)
{
    return nextDouble() < p;
}

std::string
Rng::nextString(std::size_t len)
{
    static const char alphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string out(len, '\0');
    for (auto &c : out)
        c = alphabet[next(sizeof(alphabet) - 1)];
    return out;
}

Rng
Rng::split()
{
    return Rng((*this)());
}

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; i++)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    return sum;
}

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    panic_if(n == 0, "ZipfianGenerator over empty domain");
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfianGenerator::next(Rng &rng) const
{
    const double u = rng.nextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    const auto idx = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return idx >= n_ ? n_ - 1 : idx;
}

ScrambledSequence::ScrambledSequence(std::uint64_t n, Rng &rng)
    : n_(n)
{
    panic_if(n == 0, "ScrambledSequence over empty domain");
    bits_ = 1;
    while (bits_ < 64 && (std::uint64_t(1) << bits_) < n)
        bits_++;
    mask_ = bits_ == 64 ? ~std::uint64_t(0)
                        : (std::uint64_t(1) << bits_) - 1;
    mult_ = rng() | 1;
    add_ = rng();
}

std::uint64_t
ScrambledSequence::permute(std::uint64_t x) const
{
    // Each step is invertible on the low bits_ bits: odd multiply and
    // add modulo 2^bits_, xor with a right shift of at least one.
    x = (x * mult_) & mask_;
    x ^= x >> (bits_ / 2 + 1);
    x = (x + add_) & mask_;
    x = (x * mult_) & mask_;
    x ^= x >> (bits_ / 3 + 1);
    return x;
}

std::uint64_t
ScrambledSequence::at(std::uint64_t i) const
{
    // Cycle-walk the keyed permutation of [0, 2^bits_) until it lands
    // inside [0, n): the first-return map is a bijection of [0, n).
    std::uint64_t x = i;
    do {
        x = permute(x);
    } while (x >= n_);
    return x;
}

} // namespace whisper
