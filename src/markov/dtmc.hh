/**
 * @file
 * Discrete-time Markov chain construction and stationary analysis.
 *
 * The chains produced by the bus models are small (tens to a few
 * thousand states), so a dense representation with a direct linear
 * solve is both simplest and fastest. The test suite cross-checks it
 * against power iteration.
 */

#ifndef SBN_MARKOV_DTMC_HH
#define SBN_MARKOV_DTMC_HH

#include <cstddef>
#include <vector>

namespace sbn {

/**
 * Row-stochastic transition matrix with stationary-distribution
 * solvers. Rows are accumulated with addTransition (duplicates sum),
 * then validated and solved.
 */
class Dtmc
{
  public:
    /** Create a chain with @p num_states states and no transitions. */
    explicit Dtmc(std::size_t num_states);

    /** Number of states. */
    std::size_t numStates() const { return n_; }

    /** Accumulate probability mass on the (from -> to) transition. */
    void addTransition(std::size_t from, std::size_t to, double prob);

    /** Read an entry of the transition matrix. */
    double probability(std::size_t from, std::size_t to) const;

    /**
     * Verify every row sums to 1 within @p tol and every entry is in
     * [-tol, 1+tol]. Panics on violation (model construction bug).
     */
    void validate(double tol = 1e-9) const;

    /**
     * Stationary distribution via a direct solve of pi P = pi,
     * sum(pi) = 1 (Gaussian elimination with partial pivoting on the
     * transposed system with the normalization row substituted).
     *
     * @pre the chain is irreducible (unique stationary distribution);
     *      aperiodicity is not required.
     */
    std::vector<double> stationaryDirect() const;

    /** Expectation of @p reward under distribution @p pi. */
    static double expectation(const std::vector<double> &pi,
                              const std::vector<double> &reward);

  private:
    std::size_t n_;
    std::vector<double> p_; // row-major n_ x n_
};

} // namespace sbn

#endif // SBN_MARKOV_DTMC_HH
