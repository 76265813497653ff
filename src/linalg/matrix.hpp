/**
 * @file
 * Dense matrix/vector type used throughout the library.
 *
 * Matrices are small here (controller state dimensions are < 16), so the
 * implementation favours clarity and numerical robustness over blocking or
 * vectorization. The class is templated on the scalar so the frequency
 * response code can reuse it with std::complex<double>.
 *
 * Vectors are represented as n-by-1 matrices; operator[] is provided for
 * them and checks the shape.
 */

#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"

/*
 * Element-access checking policy: with MIMOARCH_CHECKED=1 every
 * operator()/operator[] access panics on an out-of-range index; with 0
 * it compiles down to the raw row-major index. The build sets this per
 * configuration (ON for Debug/RelWithDebInfo and all sanitizer builds,
 * OFF for Release and the release ctest leg); the fallback here keeps
 * standalone compiles on the safe side. Shape checks on whole-matrix
 * operations are once-per-call and stay on unconditionally.
 */
#ifndef MIMOARCH_CHECKED
#define MIMOARCH_CHECKED 1
#endif

namespace mimoarch {

/** Dense row-major matrix over scalar T. */
template <typename T>
class MatrixT
{
  public:
    /** Empty 0x0 matrix. */
    MatrixT() = default;

    /** Zero-initialized rows x cols matrix. */
    MatrixT(size_t rows, size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, T{})
    {}

    /** rows x cols matrix filled with @p fill. */
    MatrixT(size_t rows, size_t cols, T fill)
        : rows_(rows), cols_(cols), data_(rows * cols, fill)
    {}

    /**
     * Build from nested initializer lists:
     * Matrix m{{1, 2}, {3, 4}};
     */
    MatrixT(std::initializer_list<std::initializer_list<T>> init)
    {
        rows_ = init.size();
        cols_ = rows_ ? init.begin()->size() : 0;
        data_.reserve(rows_ * cols_);
        for (const auto &row : init) {
            if (row.size() != cols_)
                panic("ragged initializer list for matrix");
            for (const T &v : row)
                data_.push_back(v);
        }
    }

    /** Column vector from a flat initializer list. */
    static MatrixT
    vector(std::initializer_list<T> init)
    {
        MatrixT v(init.size(), 1);
        size_t i = 0;
        for (const T &x : init)
            v.data_[i++] = x;
        return v;
    }

    /** Column vector from a std::vector. */
    static MatrixT
    vector(const std::vector<T> &init)
    {
        MatrixT v(init.size(), 1);
        for (size_t i = 0; i < init.size(); ++i)
            v.data_[i] = init[i];
        return v;
    }

    /** n x n identity. */
    static MatrixT
    identity(size_t n)
    {
        MatrixT m(n, n);
        for (size_t i = 0; i < n; ++i)
            m(i, i) = T{1};
        return m;
    }

    /** Square diagonal matrix from the given entries. */
    static MatrixT
    diag(const std::vector<T> &entries)
    {
        MatrixT m(entries.size(), entries.size());
        for (size_t i = 0; i < entries.size(); ++i)
            m(i, i) = entries[i];
        return m;
    }

    /** Square diagonal matrix from an initializer list. */
    static MatrixT
    diag(std::initializer_list<T> entries)
    {
        return diag(std::vector<T>(entries));
    }

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }
    bool isSquare() const { return rows_ == cols_; }
    bool isVector() const { return cols_ == 1; }

    /** Element access with bounds checks. */
    T &
    operator()(size_t r, size_t c)
    {
        checkIndex(r, c);
        return data_[r * cols_ + c];
    }

    const T &
    operator()(size_t r, size_t c) const
    {
        checkIndex(r, c);
        return data_[r * cols_ + c];
    }

    /** Vector element access; requires a column vector. */
    T &
    operator[](size_t i)
    {
#if MIMOARCH_CHECKED
        if (cols_ != 1)
            panic("operator[] on a non-vector matrix");
#endif
        return (*this)(i, 0);
    }

    const T &
    operator[](size_t i) const
    {
#if MIMOARCH_CHECKED
        if (cols_ != 1)
            panic("operator[] on a non-vector matrix");
#endif
        return (*this)(i, 0);
    }

    /** Raw storage (row-major). */
    const std::vector<T> &data() const { return data_; }

    /** Transpose (no conjugation). */
    MatrixT
    transpose() const
    {
        MatrixT t(cols_, rows_);
        for (size_t r = 0; r < rows_; ++r)
            for (size_t c = 0; c < cols_; ++c)
                t(c, r) = (*this)(r, c);
        return t;
    }

    /** Copy of rows [r0, r0+nr) x cols [c0, c0+nc). */
    MatrixT
    block(size_t r0, size_t c0, size_t nr, size_t nc) const
    {
        if (r0 + nr > rows_ || c0 + nc > cols_)
            panic("block out of range");
        MatrixT b(nr, nc);
        for (size_t r = 0; r < nr; ++r)
            for (size_t c = 0; c < nc; ++c)
                b(r, c) = (*this)(r0 + r, c0 + c);
        return b;
    }

    /** Write @p b into this matrix at (r0, c0). */
    void
    setBlock(size_t r0, size_t c0, const MatrixT &b)
    {
        if (r0 + b.rows_ > rows_ || c0 + b.cols_ > cols_)
            panic("setBlock out of range");
        for (size_t r = 0; r < b.rows_; ++r)
            for (size_t c = 0; c < b.cols_; ++c)
                (*this)(r0 + r, c0 + c) = b(r, c);
    }

    /** One row as a 1 x cols matrix. */
    MatrixT row(size_t r) const { return block(r, 0, 1, cols_); }

    /** One column as a column vector. */
    MatrixT col(size_t c) const { return block(0, c, rows_, 1); }

    MatrixT &
    operator+=(const MatrixT &o)
    {
        checkSameShape(o, "+");
        for (size_t i = 0; i < data_.size(); ++i)
            data_[i] += o.data_[i];
        return *this;
    }

    MatrixT &
    operator-=(const MatrixT &o)
    {
        checkSameShape(o, "-");
        for (size_t i = 0; i < data_.size(); ++i)
            data_[i] -= o.data_[i];
        return *this;
    }

    MatrixT &
    operator*=(T s)
    {
        for (auto &v : data_)
            v *= s;
        return *this;
    }

    friend MatrixT
    operator+(MatrixT a, const MatrixT &b)
    {
        a += b;
        return a;
    }

    friend MatrixT
    operator-(MatrixT a, const MatrixT &b)
    {
        a -= b;
        return a;
    }

    friend MatrixT
    operator*(MatrixT a, T s)
    {
        a *= s;
        return a;
    }

    friend MatrixT
    operator*(T s, MatrixT a)
    {
        a *= s;
        return a;
    }

    friend MatrixT
    operator-(const MatrixT &a)
    {
        MatrixT r = a;
        r *= T{-1};
        return r;
    }

    /**
     * Matrix product.
     *
     * ACCUMULATION-ORDER CONTRACT: every product kernel in this header
     * (operator*, gemv) accumulates r(i, j) in (i, k, j) loop order
     * with k ascending, starting from +0.0, with one rounding per
     * multiply and one per add (multiplies and adds stay in separate
     * statements so no fused multiply-add can form). The same contract
     * binds the fused per-element steps of LqgServoController and
     * SurrogateDynamics. The golden-trace digests
     * (tests/data/golden_traces.txt) hash result doubles bit-for-bit,
     * so any reordering, blocking, or fusion here is an observable
     * break even when mathematically neutral. There is
     * deliberately no zero-skip: skipping a(i, k) == 0 would be
     * bit-identical for finite inputs (the accumulator starts at +0.0
     * and can never become -0.0), but it silently drops 0 * NaN and
     * 0 * Inf poison from a corrupted model matrix, which the fault
     * detection layer relies on propagating.
     */
    friend MatrixT
    operator*(const MatrixT &a, const MatrixT &b)
    {
        if (a.cols_ != b.rows_) {
            panic("matrix product shape mismatch: ", a.rows_, "x", a.cols_,
                  " * ", b.rows_, "x", b.cols_);
        }
        MatrixT r(a.rows_, b.cols_);
        for (size_t i = 0; i < a.rows_; ++i) {
            for (size_t k = 0; k < a.cols_; ++k) {
                const T aik = a(i, k);
                for (size_t j = 0; j < b.cols_; ++j) {
                    const T t = aik * b(k, j);
                    r(i, j) += t;
                }
            }
        }
        return r;
    }

    /**
     * out = a * x for a column vector x, with no allocation once @p out
     * holds a.rows() elements. Follows the accumulation-order contract
     * documented on operator*. @p out must not alias an input.
     */
    static void
    gemv(MatrixT &out, const MatrixT &a, const MatrixT &x)
    {
        if (x.cols_ != 1 || a.cols_ != x.rows_) {
            panic("gemv shape mismatch: ", a.rows_, "x", a.cols_, " * ",
                  x.rows_, "x", x.cols_);
        }
        if (&out == &a || &out == &x)
            panic("gemv: out aliases an input");
        out.resizeShape(a.rows_, 1);
        for (size_t i = 0; i < a.rows_; ++i) {
            const T *ai = &a.data_[i * a.cols_];
            T s{};
            for (size_t k = 0; k < a.cols_; ++k) {
                const T t = ai[k] * x.data_[k];
                s += t;
            }
            out.data_[i] = s;
        }
    }

    /**
     * Reshape to r x c, reusing the existing storage when the element
     * count already matches (no allocation); contents are zeroed only
     * when the count changes. Workspace owners call this once at
     * warm-up and rely on the no-allocation path afterwards.
     */
    void
    resizeShape(size_t r, size_t c)
    {
        if (data_.size() != r * c)
            data_.assign(r * c, T{});
        rows_ = r;
        cols_ = c;
    }

    /** Frobenius norm. */
    double
    frobeniusNorm() const
    {
        double s = 0.0;
        for (const T &v : data_)
            s += std::norm(std::complex<double>(v));
        return std::sqrt(s);
    }

    /** Max absolute entry. */
    double
    maxAbs() const
    {
        double m = 0.0;
        for (const T &v : data_)
            m = std::max(m, std::abs(std::complex<double>(v)));
        return m;
    }

    /** Sum of diagonal entries (square only). */
    T
    trace() const
    {
        if (!isSquare())
            panic("trace of non-square matrix");
        T s{};
        for (size_t i = 0; i < rows_; ++i)
            s += (*this)(i, i);
        return s;
    }

    /** Human-readable rendering for debugging and test failure messages. */
    std::string
    toString() const
    {
        std::ostringstream os;
        os << rows_ << "x" << cols_ << " [";
        for (size_t r = 0; r < rows_; ++r) {
            os << (r ? "; " : "");
            for (size_t c = 0; c < cols_; ++c)
                os << (c ? " " : "") << (*this)(r, c);
        }
        os << "]";
        return os.str();
    }

  private:
    void
    checkIndex(size_t r, size_t c) const
    {
#if MIMOARCH_CHECKED
        if (r >= rows_ || c >= cols_) {
            panic("matrix index (", r, ",", c, ") out of range ", rows_, "x",
                  cols_);
        }
#else
        (void)r;
        (void)c;
#endif
    }

    void
    checkSameShape(const MatrixT &o, const char *op) const
    {
        if (rows_ != o.rows_ || cols_ != o.cols_) {
            panic("matrix shape mismatch for '", op, "': ", rows_, "x",
                  cols_, " vs ", o.rows_, "x", o.cols_);
        }
    }

    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<T> data_;
};

/** The workhorse real matrix. */
using Matrix = MatrixT<double>;

/** Complex matrix for frequency-domain analysis. */
using CMatrix = MatrixT<std::complex<double>>;

/** Promote a real matrix to a complex one. */
CMatrix toComplex(const Matrix &m);

/** Vertical concatenation [a; b]; column counts must match. */
Matrix vcat(const Matrix &a, const Matrix &b);

/** True when every |a - b| entry is within @p tol. */
bool approxEqual(const Matrix &a, const Matrix &b, double tol = 1e-9);

} // namespace mimoarch
