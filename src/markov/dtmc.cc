#include "markov/dtmc.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace sbn {

Dtmc::Dtmc(std::size_t num_states) : n_(num_states), p_(n_ * n_, 0.0)
{
    sbn_assert(num_states >= 1, "chain needs at least one state");
}

void
Dtmc::addTransition(std::size_t from, std::size_t to, double prob)
{
    sbn_assert(from < n_ && to < n_, "transition index out of range");
    p_[from * n_ + to] += prob;
}

double
Dtmc::probability(std::size_t from, std::size_t to) const
{
    sbn_assert(from < n_ && to < n_, "probability index out of range");
    return p_[from * n_ + to];
}

void
Dtmc::validate(double tol) const
{
    for (std::size_t i = 0; i < n_; ++i) {
        double row = 0.0;
        for (std::size_t j = 0; j < n_; ++j) {
            const double v = p_[i * n_ + j];
            sbn_assert(v >= -tol && v <= 1.0 + tol,
                       "P[", i, ",", j, "] out of [0,1]: ", v);
            row += v;
        }
        sbn_assert(std::abs(row - 1.0) <= tol * static_cast<double>(n_),
                   "row ", i, " sums to ", row, ", expected 1");
    }
}

std::vector<double>
Dtmc::stationaryDirect() const
{
    // Solve (P^T - I) pi = 0 together with sum(pi) = 1. The
    // normalization is *added* to the last row rather than replacing
    // it: the columns of P^T - I sum to zero, so the last row is the
    // negated sum of the others and A + e_last*1^T is provably
    // nonsingular for a chain with one recurrent class (replacing a
    // row can leave a rank-deficient system).
    const std::size_t n = n_;
    std::vector<double> a(n * n, 0.0);
    std::vector<double> b(n, 0.0);

    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            a[i * n + j] = p_[j * n + i] - (i == j ? 1.0 : 0.0);
    for (std::size_t j = 0; j < n; ++j)
        a[(n - 1) * n + j] += 1.0;
    b[n - 1] = 1.0;

    // Gaussian elimination with partial pivoting.
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t row = col + 1; row < n; ++row)
            if (std::abs(a[row * n + col]) > std::abs(a[pivot * n + col]))
                pivot = row;
        if (pivot != col) {
            for (std::size_t j = 0; j < n; ++j)
                std::swap(a[col * n + j], a[pivot * n + j]);
            std::swap(b[col], b[pivot]);
        }
        const double diag = a[col * n + col];
        sbn_assert(std::abs(diag) > 1e-14,
                   "singular system: chain is likely reducible");
        for (std::size_t row = col + 1; row < n; ++row) {
            const double factor = a[row * n + col] / diag;
            if (factor == 0.0)
                continue;
            for (std::size_t j = col; j < n; ++j)
                a[row * n + j] -= factor * a[col * n + j];
            b[row] -= factor * b[col];
        }
    }

    std::vector<double> pi(n, 0.0);
    for (std::size_t rowp1 = n; rowp1 > 0; --rowp1) {
        const std::size_t row = rowp1 - 1;
        double acc = b[row];
        for (std::size_t j = row + 1; j < n; ++j)
            acc -= a[row * n + j] * pi[j];
        pi[row] = acc / a[row * n + row];
    }

    // Clamp tiny negatives introduced by roundoff and renormalize.
    double total = 0.0;
    for (auto &v : pi) {
        if (v < 0.0 && v > -1e-9)
            v = 0.0;
        total += v;
    }
    sbn_assert(total > 0.0, "stationary distribution sums to zero");
    for (auto &v : pi)
        v /= total;
    return pi;
}

double
Dtmc::expectation(const std::vector<double> &pi,
                  const std::vector<double> &reward)
{
    sbn_assert(pi.size() == reward.size(),
               "expectation: size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < pi.size(); ++i)
        acc += pi[i] * reward[i];
    return acc;
}

} // namespace sbn
