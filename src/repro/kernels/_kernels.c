/* Compiled partition/validation kernels for the FASTOD hot path.
 *
 * Built on demand by repro/kernels/compiled.py (cc -O3 -shared -fPIC)
 * and called through ctypes — no CPython API, so the same source works
 * on any interpreter with a C toolchain, and its absence degrades
 * cleanly to the NumPy reference backend.
 *
 * Output contract: every kernel reproduces the reference backend's
 * arrays byte for byte.  The comments on each kernel state why; the
 * backend-parity suite (tests/kernels) enforces it.  The swap kernels
 * sort nothing: they take τ_A, the relation's rows sorted once by the
 * left attribute, and answer a context in one pass over it per
 * (A, B) pair.
 *
 * All arrays are contiguous int64 unless noted; flags/masks are uint8
 * (0/1) so Python can reinterpret them as bool without a copy.
 */

#include <stdint.h>
#include <stdlib.h>

static int cmp_i64(const void *x, const void *y)
{
    int64_t a = *(const int64_t *)x, b = *(const int64_t *)y;
    return (a > b) - (a < b);
}

/* ------------------------------------------------------------------ */
/* partition product: Π_X · Π_Y on the flat CSR layout                */
/* ------------------------------------------------------------------ */

/* Refine Π_Y's classes by Π_X's row->class probe table.
 *
 * The NumPy reference sorts the grouped rows by the composite key
 * (y_class * n_left + left_class) with a stable sort and strips
 * singleton runs.  That layout is: classes ordered by (y_class asc,
 * left_class asc), rows within a class in their original rows_y
 * order.  This kernel reproduces it directly — per y-class counting
 * of the left classes touched, groups emitted in ascending left-class
 * order, rows placed in a second pass over the segment in original
 * order — in O(m + k log k) without the global sort.
 *
 * probe       : row -> left class id, -1 for singleton rows (n_probe
 *               entries; rows_y values index into it)
 * rows_y      : flat grouped rows of Π_Y (m entries)
 * offsets_y   : class boundaries of Π_Y (n_classes_y + 1 entries)
 * n_left      : number of classes of Π_X (probe values < n_left)
 * out_rows    : capacity m
 * out_offsets : capacity m/2 + 2
 *
 * Returns the number of refined classes (out_offsets[k] is the total
 * row count), or -1 on allocation failure.
 */
int64_t repro_product(const int64_t *probe, const int64_t *rows_y,
                      const int64_t *offsets_y, int64_t n_classes_y,
                      int64_t n_left, int64_t *out_rows,
                      int64_t *out_offsets)
{
    int64_t m = offsets_y[n_classes_y];
    size_t left_cap = (size_t)(n_left > 0 ? n_left : 1);
    /* count is calloc'd once and reset via the touched list, so a
     * class touching t left classes costs O(t), not O(n_left) */
    int64_t *count = calloc(left_cap, sizeof *count);
    int64_t *cursor = malloc(left_cap * sizeof *cursor);
    int64_t *touched = malloc((size_t)(m > 0 ? m : 1) * sizeof *touched);
    if (!count || !cursor || !touched) {
        free(count);
        free(cursor);
        free(touched);
        return -1;
    }
    int64_t k = 0;
    int64_t filled = 0;
    out_offsets[0] = 0;
    for (int64_t c = 0; c < n_classes_y; c++) {
        int64_t s = offsets_y[c], e = offsets_y[c + 1];
        int64_t nt = 0;
        for (int64_t i = s; i < e; i++) {
            int64_t left = probe[rows_y[i]];
            if (left < 0)
                continue;
            if (count[left] == 0)
                touched[nt++] = left;
            count[left]++;
        }
        if (nt > 1) {
            if (nt <= 32) {
                for (int64_t i = 1; i < nt; i++) {
                    int64_t v = touched[i], j = i - 1;
                    while (j >= 0 && touched[j] > v) {
                        touched[j + 1] = touched[j];
                        j--;
                    }
                    touched[j + 1] = v;
                }
            } else {
                qsort(touched, (size_t)nt, sizeof *touched, cmp_i64);
            }
        }
        for (int64_t t = 0; t < nt; t++) {
            int64_t left = touched[t];
            if (count[left] >= 2) {
                cursor[left] = filled;
                filled += count[left];
                out_offsets[++k] = filled;
            } else {
                cursor[left] = -1;    /* singleton: stripped */
            }
        }
        for (int64_t i = s; i < e; i++) {
            int64_t left = probe[rows_y[i]];
            if (left < 0)
                continue;
            if (cursor[left] >= 0)
                out_rows[cursor[left]++] = rows_y[i];
        }
        for (int64_t t = 0; t < nt; t++)
            count[touched[t]] = 0;
    }
    free(count);
    free(cursor);
    free(touched);
    return k;
}

/* ------------------------------------------------------------------ */
/* swap scan: one walk over τ_A per (A, B) pair                       */
/* ------------------------------------------------------------------ */

/* order_a is τ_A (Section 4.6): all n rows of the relation sorted by
 * A, in any order within equal A.  A scratch row -> class table (-1
 * for rows outside every class) lets one walk over τ_A visit each
 * class's rows in ascending A.  Per class the walk keeps the current
 * A value, that A group's maximum B, and the maximum B over earlier
 * (strictly smaller) A groups, and flags the class at the first B
 * below the last (Definition 5).  A row is only ever compared with
 * earlier groups, so the order within an A group is irrelevant and
 * the flags equal the reference backend's.  O(n + m).
 *
 * Two entry points share the table fill and the walk:
 * repro_swap_flags flags every class of one (A, B) pair, and
 * repro_swap_verdicts answers many pairs over one context, filling
 * the table once and stopping each pair at its first swap.
 *
 * Both return a negative code, before any scratch write outside its
 * bounds, for inputs that break the CSR contract: -1 allocation
 * failure, -2 a context row outside [0, n), -3 offsets that do not
 * start at 0, decrease, or do not end at m, -4 a τ_A entry outside
 * [0, n).
 */
typedef struct {
    int64_t a;
    int64_t group_max;
    int64_t before_max;
} repro_swap_state;

/* One (A, B) pair of repro_swap_verdicts.  negate marks a descending
 * B (the swap_desc scans): the walk reads ~b, which reverses the
 * order like -b but cannot overflow. */
typedef struct {
    const int64_t *col_a;
    const int64_t *col_b;
    const int64_t *order_a;
    int64_t negate;
} repro_swap_pair;

/* the binding packs each record as four 8-byte words; a host where
 * that layout does not hold fails the build and falls back to the
 * reference backend */
_Static_assert(sizeof(repro_swap_pair) == 4 * sizeof(int64_t),
               "repro_swap_pair must be four 8-byte fields");

static int64_t fill_class_of(int64_t *class_of, int64_t n,
                             const int64_t *rows, int64_t m,
                             const int64_t *offsets, int64_t n_classes)
{
    for (int64_t i = 0; i < n; i++)
        class_of[i] = -1;
    if (offsets[0] != 0 || offsets[n_classes] != m)
        return -3;
    for (int64_t c = 0; c < n_classes; c++) {
        int64_t s = offsets[c], e = offsets[c + 1];
        if (e < s || e > m)
            return -3;
        for (int64_t i = s; i < e; i++) {
            if (rows[i] < 0 || rows[i] >= n)
                return -2;
            class_of[rows[i]] = c;
        }
    }
    return 0;
}

/* Walk τ_A for one pair until `limit` classes are flagged; returns
 * the number flagged (or -4). */
static int64_t swap_walk(const int64_t *col_a, const int64_t *col_b,
                         int64_t b_mask, const int64_t *order_a,
                         int64_t n, const int64_t *class_of,
                         int64_t n_classes, repro_swap_state *state,
                         uint8_t *flags, int64_t limit)
{
    for (int64_t c = 0; c < n_classes; c++) {
        flags[c] = 0;
        /* INT64_MIN marks "no B yet": no B lies below it, and the
         * first row of a class opens its first A group whatever the
         * initial A value */
        state[c].a = 0;
        state[c].group_max = INT64_MIN;
        state[c].before_max = INT64_MIN;
    }
    int64_t flagged = 0;
    for (int64_t i = 0; i < n && flagged < limit; i++) {
        int64_t row = order_a[i];
        if (row < 0 || row >= n)
            return -4;
        int64_t c = class_of[row];
        if (c < 0 || flags[c])
            continue;
        repro_swap_state *s = &state[c];
        int64_t a = col_a[row], b = col_b[row] ^ b_mask;
        if (a != s->a) {
            if (s->group_max > s->before_max)
                s->before_max = s->group_max;
            s->a = a;
            s->group_max = b;
        } else if (b > s->group_max) {
            s->group_max = b;
        }
        if (b < s->before_max) {
            flags[c] = 1;
            flagged++;
        }
    }
    return flagged;
}

/* Flag every class of the context containing a swap w.r.t. X: A ~ B
 * (out_flags: n_classes entries).  Returns the number flagged. */
int64_t repro_swap_flags(const int64_t *col_a, const int64_t *col_b,
                         const int64_t *order_a, int64_t n,
                         const int64_t *rows, int64_t m,
                         const int64_t *offsets, int64_t n_classes,
                         uint8_t *out_flags)
{
    int64_t *class_of = malloc((size_t)(n > 0 ? n : 1) * sizeof *class_of);
    repro_swap_state *state = malloc(
        (size_t)(n_classes > 0 ? n_classes : 1) * sizeof *state);
    int64_t rc = -1;
    if (class_of && state) {
        rc = fill_class_of(class_of, n, rows, m, offsets, n_classes);
        if (rc == 0 && m > 0)
            rc = swap_walk(col_a, col_b, 0, order_a, n, class_of,
                           n_classes, state, out_flags, n_classes);
    }
    free(class_of);
    free(state);
    return rc;
}

/* out_swapped[p] = 1 iff some class of the context contains a swap
 * w.r.t. pairs[p].  Returns the number of such pairs. */
int64_t repro_swap_verdicts(const repro_swap_pair *pairs, int64_t n_pairs,
                            int64_t n, const int64_t *rows, int64_t m,
                            const int64_t *offsets, int64_t n_classes,
                            uint8_t *out_swapped)
{
    size_t k = (size_t)(n_classes > 0 ? n_classes : 1);
    int64_t *class_of = malloc((size_t)(n > 0 ? n : 1) * sizeof *class_of);
    repro_swap_state *state = malloc(k * sizeof *state);
    uint8_t *flags = malloc(k);
    int64_t rc = -1;
    if (class_of && state && flags)
        rc = fill_class_of(class_of, n, rows, m, offsets, n_classes);
    for (int64_t p = 0; p < n_pairs && rc >= 0; p++) {
        int64_t got = 0;
        if (m > 0)
            got = swap_walk(pairs[p].col_a, pairs[p].col_b,
                            -(int64_t)(pairs[p].negate != 0),
                            pairs[p].order_a, n, class_of, n_classes,
                            state, flags, 1);
        if (got < 0) {
            rc = got;
            break;
        }
        out_swapped[p] = (uint8_t)got;
        rc += got;
    }
    free(class_of);
    free(state);
    free(flags);
    return rc;
}

/* ------------------------------------------------------------------ */
/* split scan: per-grouped-row constancy mismatch mask                */
/* ------------------------------------------------------------------ */

/* out_mask[i] = 1 iff column[rows[i]] differs from its class's first
 * value — positionally identical to the reference's gather/repeat
 * comparison. */
void repro_split_mismatch(const int64_t *column, const int64_t *rows,
                          const int64_t *offsets, int64_t n_classes,
                          uint8_t *out_mask)
{
    for (int64_t c = 0; c < n_classes; c++) {
        int64_t s = offsets[c], e = offsets[c + 1];
        if (s >= e)
            continue;
        int64_t first = column[rows[s]];
        out_mask[s] = 0;
        for (int64_t i = s + 1; i < e; i++)
            out_mask[i] = column[rows[i]] != first;
    }
}

/* ------------------------------------------------------------------ */
/* rank re-encoding: densify a gathered rank column                   */
/* ------------------------------------------------------------------ */

/* np.unique(values, return_inverse=True) for nonnegative, bounded-
 * range int64 ranks: out_survivors gets the sorted distinct values
 * (ascending), out_dense (n entries) each value's index among them.
 * Two counting passes over a presence/rank table of size (max-min+1)
 * replace the sort.
 *
 * Returns the number of distinct values, or a negative fallback code
 * the caller resolves with np.unique: -1 negative input, -2 value
 * range too wide to table (> 4n + 1024), -3 allocation failure.
 */
int64_t repro_densify(const int64_t *values, int64_t n,
                      int64_t *out_survivors, int64_t *out_dense)
{
    if (n == 0)
        return 0;
    int64_t lo = values[0], hi = values[0];
    for (int64_t i = 1; i < n; i++) {
        if (values[i] < lo)
            lo = values[i];
        if (values[i] > hi)
            hi = values[i];
    }
    if (lo < 0)
        return -1;
    int64_t range = hi - lo + 1;
    if (range > 4 * n + 1024)
        return -2;
    int64_t *map = calloc((size_t)range, sizeof *map);
    if (!map)
        return -3;
    for (int64_t i = 0; i < n; i++)
        map[values[i] - lo] = 1;
    int64_t k = 0;
    for (int64_t r = 0; r < range; r++) {
        if (map[r]) {
            out_survivors[k] = lo + r;
            map[r] = ++k;             /* rank + 1; 0 stays "absent" */
        }
    }
    for (int64_t i = 0; i < n; i++)
        out_dense[i] = map[values[i] - lo] - 1;
    free(map);
    return k;
}
