/* Compiled partition/validation kernels for the FASTOD hot path.
 *
 * Built on demand by repro/kernels/compiled.py (cc -O3 -shared -fPIC)
 * and called through ctypes — no CPython API, so the same source works
 * on any interpreter with a C toolchain, and its absence degrades
 * cleanly to the NumPy reference backend.
 *
 * Output contract: every kernel reproduces the reference backend's
 * arrays byte for byte.  The comments on each kernel state why; the
 * backend-parity suite (tests/kernels) enforces it.  The product
 * kernel builds a whole lattice level per call and sorts no rows, and
 * the swap kernel sorts nothing either: it takes τ_A, the relation's
 * rows sorted once by the left attribute (counting-sorted by
 * repro_rank_order), and answers a context in one pass over it per
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
/* partition products: one lattice level in one call                  */
/* ------------------------------------------------------------------ */

/* One parent partition of repro_products, in the flat CSR layout:
 * rows[offsets[c]:offsets[c + 1]] is class c. */
typedef struct {
    const int64_t *rows;
    int64_t n_grouped;              /* len(rows) */
    const int64_t *offsets;
    int64_t n_classes;              /* len(offsets) - 1 */
} repro_parent;

/* the binding packs each record as four 8-byte words, like
 * repro_swap_pair below */
_Static_assert(sizeof(repro_parent) == 4 * sizeof(int64_t),
               "repro_parent must be four 8-byte fields");

/* Π_left · Π_right for every (left, right) task of one lattice level.
 *
 * The NumPy reference sorts each task's grouped right rows by the
 * composite key (right_class * n_left + left_class) with a stable sort
 * and strips singleton runs.  That layout is: classes ordered by
 * (right class asc, left class asc), rows within a class in their
 * original right-parent order.  This kernel reproduces it without the
 * sort — per right class, counting of the left classes touched, groups
 * emitted in ascending left-class order, rows placed in a second pass
 * over the class in original order — in O(m + k log k) per task.
 *
 * An n-entry row -> class probe is filled from a left parent's own
 * rows/offsets and reset by re-walking the same rows, once per run of
 * consecutive tasks sharing that left parent — a caller that groups
 * its tasks by left parent fills one probe per parent.  Every task's
 * product is packed into out_rows/out_offsets in task order, its
 * offsets starting at 0, and out_spans[4t .. 4t + 3] = (rows start,
 * rows length, offsets start, class count) locates task t's output.
 * A task's product holds at most min(||Π_left||, ||Π_right||) rows;
 * the binding sizes out_rows by that bound summed over tasks and
 * out_offsets by half of it plus one per task, and rows_cap /
 * offsets_cap bound every write.
 *
 * Returns 0, or a negative code before the first write for inputs
 * that break the contract: -2 a parent row outside [0, n), -3 parent
 * offsets that do not start at 0, decrease, or do not end at
 * len(rows), -4 a task index outside [0, n_parents).  -5 (a task
 * outgrew its bound: a parent lists a row twice) is detected before
 * the write that would pass it; -1 is an allocation failure.
 */
int64_t repro_products(const repro_parent *parents, int64_t n_parents,
                       const int64_t *tasks, int64_t n_tasks, int64_t n,
                       int64_t *out_rows, int64_t rows_cap,
                       int64_t *out_offsets, int64_t offsets_cap,
                       int64_t *out_spans)
{
    for (int64_t t = 0; t < 2 * n_tasks; t++)
        if (tasks[t] < 0 || tasks[t] >= n_parents)
            return -4;
    int64_t max_classes = 1, max_grouped = 1;
    for (int64_t p = 0; p < n_parents; p++) {
        const repro_parent *parent = &parents[p];
        int64_t k = parent->n_classes, m = parent->n_grouped;
        if (k < 0 || parent->offsets[0] != 0 || parent->offsets[k] != m)
            return -3;
        for (int64_t c = 0; c < k; c++)
            if (parent->offsets[c + 1] < parent->offsets[c])
                return -3;
        for (int64_t i = 0; i < m; i++)
            if (parent->rows[i] < 0 || parent->rows[i] >= n)
                return -2;
        if (k > max_classes)
            max_classes = k;
        if (m > max_grouped)
            max_grouped = m;
    }

    int64_t *probe = malloc((size_t)(n > 0 ? n : 1) * sizeof *probe);
    /* count is calloc'd once and reset via the touched list, so a
     * class touching t left classes costs O(t), not O(n_left) */
    int64_t *count = calloc((size_t)max_classes, sizeof *count);
    int64_t *cursor = malloc((size_t)max_classes * sizeof *cursor);
    int64_t *touched = malloc((size_t)max_grouped * sizeof *touched);
    int64_t rc = -1;
    if (!probe || !count || !cursor || !touched)
        goto done;
    for (int64_t i = 0; i < n; i++)
        probe[i] = -1;

    int64_t filled = 0, k = 0;
    for (int64_t t = 0; t < n_tasks; t++) {
        const repro_parent *left = &parents[tasks[2 * t]];
        const repro_parent *right = &parents[tasks[2 * t + 1]];
        if (t == 0 || tasks[2 * t - 2] != tasks[2 * t]) {
            for (int64_t c = 0; c < left->n_classes; c++)
                for (int64_t i = left->offsets[c];
                     i < left->offsets[c + 1]; i++)
                    probe[left->rows[i]] = c;
        }
        int64_t bound = left->n_grouped < right->n_grouped
            ? left->n_grouped : right->n_grouped;
        int64_t rows_start = filled, offsets_start = k;
        if (k >= offsets_cap) {
            rc = -5;
            goto done;
        }
        out_offsets[k] = 0;
        for (int64_t c = 0; c < right->n_classes; c++) {
            int64_t s = right->offsets[c], e = right->offsets[c + 1];
            int64_t nt = 0;
            for (int64_t i = s; i < e; i++) {
                int64_t cls = probe[right->rows[i]];
                if (cls < 0)
                    continue;
                if (count[cls] == 0)
                    touched[nt++] = cls;
                count[cls]++;
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
            int64_t overflow = 0;
            for (int64_t i = 0; i < nt; i++) {
                int64_t cls = touched[i];
                if (count[cls] < 2) {
                    cursor[cls] = -1;       /* singleton: stripped */
                    continue;
                }
                if (filled + count[cls] - rows_start > bound
                        || filled + count[cls] > rows_cap
                        || k + 1 >= offsets_cap) {
                    overflow = 1;
                    break;
                }
                cursor[cls] = filled;
                filled += count[cls];
                out_offsets[++k] = filled - rows_start;
            }
            for (int64_t i = 0; i < nt; i++)
                count[touched[i]] = 0;
            if (overflow) {
                rc = -5;
                goto done;
            }
            for (int64_t i = s; i < e; i++) {
                int64_t cls = probe[right->rows[i]];
                if (cls >= 0 && cursor[cls] >= 0)
                    out_rows[cursor[cls]++] = right->rows[i];
            }
        }
        k++;                    /* past this task's last offset */
        out_spans[4 * t] = rows_start;
        out_spans[4 * t + 1] = filled - rows_start;
        out_spans[4 * t + 2] = offsets_start;
        out_spans[4 * t + 3] = k - offsets_start - 1;
        if (t + 1 == n_tasks || tasks[2 * t + 2] != tasks[2 * t]) {
            for (int64_t i = 0; i < left->n_grouped; i++)
                probe[left->rows[i]] = -1;
        }
    }
    rc = 0;
done:
    free(probe);
    free(count);
    free(cursor);
    free(touched);
    return rc;
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
 * below the last (Definition 5): that row is the class's stop.  A row
 * is only ever compared with earlier groups, so whether a class is
 * flagged does not depend on the order within an A group; which row
 * stops it does, and the reference backend reads the same stop off
 * the same τ_A.  O(n + m).
 *
 * repro_swap_verdicts answers many (A, B) pairs over one context,
 * filling the table once and stopping each pair after `limit`
 * flagged classes; a stop is written only when a class is flagged.
 * It returns a negative code, before any scratch write outside its
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
 * the number flagged (or -4).  The k-th flagged class and its stop
 * row go to stops[2k] and stops[2k + 1]. */
static int64_t swap_walk(const int64_t *col_a, const int64_t *col_b,
                         int64_t b_mask, const int64_t *order_a,
                         int64_t n, const int64_t *class_of,
                         int64_t n_classes, repro_swap_state *state,
                         uint8_t *flags, int64_t limit, int64_t *stops)
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
            stops[2 * flagged] = c;
            stops[2 * flagged + 1] = row;
            flagged++;
        }
    }
    return flagged;
}

/* out_swapped[p] = 1 iff some class of the context contains a swap
 * w.r.t. pairs[p].  Pair p's first `limit` stops, (class, row) in τ_A
 * order, go to out_stops[2 * limit * p ...]; the caller sizes
 * out_stops for n_pairs * limit stops, limit >= 1 (entries past a
 * pair's last stop are left as they are).  Returns the number of
 * swapping pairs. */
int64_t repro_swap_verdicts(const repro_swap_pair *pairs, int64_t n_pairs,
                            int64_t n, const int64_t *rows, int64_t m,
                            const int64_t *offsets, int64_t n_classes,
                            int64_t limit, int64_t *out_stops,
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
                            state, flags, limit,
                            out_stops + 2 * limit * p);
        if (got < 0) {
            rc = got;
            break;
        }
        out_swapped[p] = got > 0;
        rc += got > 0;
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
/* rank columns: densify and stable order by counting                 */
/* ------------------------------------------------------------------ */

/* The value range [lo, lo + range) of n > 0 ranks, or a negative
 * fallback code the caller resolves with NumPy: -1 negative input, -2
 * a range too wide to table (> 4n + 1024). */
static int64_t rank_range(const int64_t *values, int64_t n, int64_t *lo)
{
    int64_t low = values[0], high = values[0];
    for (int64_t i = 1; i < n; i++) {
        if (values[i] < low)
            low = values[i];
        if (values[i] > high)
            high = values[i];
    }
    if (low < 0)
        return -1;
    if (high - low >= 4 * n + 1024)  /* high - low cannot overflow */
        return -2;
    *lo = low;
    return high - low + 1;
}

/* np.unique(values, return_inverse=True) for nonnegative, bounded-
 * range int64 ranks: out_survivors gets the sorted distinct values
 * (ascending), out_dense (n entries) each value's index among them.
 * Two counting passes over a presence/rank table of size (max-min+1)
 * replace the sort.
 *
 * Returns the number of distinct values, or a negative fallback code
 * the caller resolves with np.unique: -1 negative input, -2 value
 * range too wide to table, -3 allocation failure.
 */
int64_t repro_densify(const int64_t *values, int64_t n,
                      int64_t *out_survivors, int64_t *out_dense)
{
    if (n == 0)
        return 0;
    int64_t lo = 0;
    int64_t range = rank_range(values, n, &lo);
    if (range < 0)
        return range;
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

/* np.argsort(values, kind="stable") for nonnegative, bounded-range
 * int64 ranks: a counting sort, rows of equal rank in index order.
 * out_order gets n row indices.  Returns 0, or the fallback codes of
 * repro_densify (-1 negative input, -2 range too wide, -3 allocation
 * failure), which the caller resolves with the NumPy sort.
 */
int64_t repro_rank_order(const int64_t *values, int64_t n,
                         int64_t *out_order)
{
    if (n == 0)
        return 0;
    int64_t lo = 0;
    int64_t range = rank_range(values, n, &lo);
    if (range < 0)
        return range;
    int64_t *start = calloc((size_t)range + 1, sizeof *start);
    if (!start)
        return -3;
    for (int64_t i = 0; i < n; i++)
        start[values[i] - lo + 1]++;
    for (int64_t r = 0; r < range; r++)
        start[r + 1] += start[r];
    for (int64_t i = 0; i < n; i++)
        out_order[start[values[i] - lo]++] = i;
    free(start);
    return 0;
}
