/**
 * @file
 * Unit tests for the DTMC stationary solvers against closed-form
 * chains, including periodic and near-reducible cases.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "markov/dtmc.hh"
#include "util/random.hh"

namespace sbn {
namespace {

/**
 * Stationary distribution by damped power iteration,
 * pi <- pi (0.5 I + 0.5 P), which converges for periodic chains too:
 * the reference the direct solver is checked against. Iterates until
 * the L1 change is below @p tol.
 */
std::vector<double>
stationaryPower(const Dtmc &chain, double tol = 1e-13)
{
    const std::size_t n = chain.numStates();
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n);
    for (int iter = 0; iter < 200000; ++iter) {
        for (std::size_t j = 0; j < n; ++j) {
            double mass = 0.0;
            for (std::size_t i = 0; i < n; ++i)
                mass += pi[i] * chain.probability(i, j);
            next[j] = 0.5 * (mass + pi[j]);
        }
        double delta = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            delta += std::abs(next[j] - pi[j]);
        pi.swap(next);
        if (delta < tol)
            return pi;
    }
    ADD_FAILURE() << "power iteration did not converge to " << tol;
    return pi;
}

TEST(Dtmc, TwoStateClosedForm)
{
    // P = [[1-a, a], [b, 1-b]] has pi = (b, a)/(a+b).
    const double a = 0.3, b = 0.1;
    Dtmc chain(2);
    chain.addTransition(0, 0, 1 - a);
    chain.addTransition(0, 1, a);
    chain.addTransition(1, 0, b);
    chain.addTransition(1, 1, 1 - b);
    chain.validate();

    const auto pi = chain.stationaryDirect();
    EXPECT_NEAR(pi[0], b / (a + b), 1e-12);
    EXPECT_NEAR(pi[1], a / (a + b), 1e-12);
}

TEST(Dtmc, PeriodicChainHandledByBothSolvers)
{
    // Deterministic 3-cycle: period 3, uniform stationary law.
    Dtmc chain(3);
    chain.addTransition(0, 1, 1.0);
    chain.addTransition(1, 2, 1.0);
    chain.addTransition(2, 0, 1.0);
    chain.validate();

    for (const auto &pi :
         {chain.stationaryDirect(), stationaryPower(chain)}) {
        for (double v : pi)
            EXPECT_NEAR(v, 1.0 / 3.0, 1e-9);
    }
}

TEST(Dtmc, DirectMatchesPowerOnRandomChain)
{
    RandomGenerator rng(77);
    const std::size_t n = 25;
    Dtmc chain(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(n);
        double total = 0.0;
        for (auto &v : row) {
            v = rng.uniformReal() + 0.01; // strictly positive: ergodic
            total += v;
        }
        for (std::size_t j = 0; j < n; ++j)
            chain.addTransition(i, j, row[j] / total);
    }
    chain.validate();

    const auto direct = chain.stationaryDirect();
    const auto power = stationaryPower(chain, 1e-14);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(direct[i], power[i], 1e-8);
}

TEST(Dtmc, StationaryIsFixedPoint)
{
    RandomGenerator rng(101);
    const std::size_t n = 12;
    Dtmc chain(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> row(n);
        double total = 0.0;
        for (auto &v : row) {
            v = rng.uniformReal();
            total += v;
        }
        for (std::size_t j = 0; j < n; ++j)
            chain.addTransition(i, j, row[j] / total);
    }
    const auto pi = chain.stationaryDirect();

    for (std::size_t j = 0; j < n; ++j) {
        double balance = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            balance += pi[i] * chain.probability(i, j);
        EXPECT_NEAR(balance, pi[j], 1e-10);
    }
    double total = 0.0;
    for (double v : pi)
        total += v;
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Dtmc, TransientStatesGetZeroMass)
{
    // State 0 drains into the recurrent pair {1, 2}.
    Dtmc chain(3);
    chain.addTransition(0, 1, 0.5);
    chain.addTransition(0, 2, 0.5);
    chain.addTransition(1, 2, 1.0);
    chain.addTransition(2, 1, 1.0);
    chain.validate();

    const auto pi = chain.stationaryDirect();
    EXPECT_NEAR(pi[0], 0.0, 1e-12);
    EXPECT_NEAR(pi[1], 0.5, 1e-12);
    EXPECT_NEAR(pi[2], 0.5, 1e-12);
}

TEST(Dtmc, BirthDeathClosedForm)
{
    // Random walk on 0..4 with reflecting ends, up prob 0.4, down 0.6;
    // stationary ratio pi[k+1]/pi[k] = 0.4/0.6 in the interior.
    const int n = 5;
    const double up = 0.4, down = 0.6;
    Dtmc chain(n);
    chain.addTransition(0, 1, up);
    chain.addTransition(0, 0, 1 - up);
    for (int k = 1; k < n - 1; ++k) {
        chain.addTransition(k, k + 1, up);
        chain.addTransition(k, k - 1, down);
        chain.addTransition(k, k, 1 - up - down);
    }
    chain.addTransition(n - 1, n - 2, down);
    chain.addTransition(n - 1, n - 1, 1 - down);
    chain.validate();

    const auto pi = chain.stationaryDirect();
    for (int k = 0; k + 1 < n; ++k)
        EXPECT_NEAR(pi[k + 1] / pi[k], up / down, 1e-9) << "k=" << k;
}

TEST(Dtmc, ExpectationHelper)
{
    const std::vector<double> pi{0.25, 0.75};
    const std::vector<double> reward{4.0, 8.0};
    EXPECT_DOUBLE_EQ(Dtmc::expectation(pi, reward), 7.0);
}

TEST(Dtmc, DuplicateTransitionsAccumulate)
{
    Dtmc chain(2);
    chain.addTransition(0, 1, 0.25);
    chain.addTransition(0, 1, 0.75);
    chain.addTransition(1, 0, 1.0);
    chain.validate();
    EXPECT_DOUBLE_EQ(chain.probability(0, 1), 1.0);
}

} // namespace
} // namespace sbn
