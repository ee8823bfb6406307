/* Compiled search kernels: A* and Lee inner loops.
 *
 * Built at first use by repro.maze.kernels.compiled with the system C
 * compiler and loaded through ctypes.  Both kernels are line-for-line
 * mirrors of the pure-python reference in repro/maze/kernels/pure.py —
 * same move order, same stale-entry skip, same budget semantics, same
 * strict-improvement pushes — so paths, costs, and expansion counts are
 * bit-identical by construction (and enforced by the parity suite).
 *
 * Heap keys are the same packed (f, g, index) integers the python kernel
 * uses, but f << 52 overflows int64, so keys are unsigned __int128.  Key
 * uniqueness (a node is pushed only on strict g improvement, and index
 * occupies the low bits) means any correct min-heap pops the identical
 * sequence the python heapq does.
 *
 * The two exported entry points take one argument: a block of int64
 * slots (pointers stored as integers) laid out by the enum below and
 * mirrored slot for slot in compiled.py.  A plane set's block is built
 * once with every buffer address in it, so a call writes only the
 * per-search slots and passes one pointer instead of thirty arguments.
 */

#include <stdint.h>
#include <stdlib.h>

#define CELL_FREE 0
#define CELL_OBSTACLE (-1)

#define G_SHIFT 24
#define F_SHIFT 52
#define INDEX_MASK ((int64_t)((1 << 24) - 1))
#define FIELD_MASK ((int64_t)((1 << 28) - 1))
#define G_LIMIT ((int64_t)1 << 28)

/* Status codes shared with compiled.py. */
#define ST_FOUND 0
#define ST_NOPATH 1
#define ST_EXHAUSTED 2
#define ST_OVERFLOW 3
#define ST_NOMEM 4

/* Argument block slots (compiled.py lists the same names in order). */
enum {
    /* plane set: written when the block is built (SRC when it grows) */
    A_WIDTH, A_HEIGHT, A_BEST, A_PARENT, A_STAMP, A_TARGET, A_PATH, A_SRC,
    A_FROZEN, A_PENALTIES,
    /* per search, both kernels */
    A_OCC, A_PIN, A_NET, A_NSRC, A_GEN,
    /* per search, A* only */
    A_CONFLICTS, A_FROZEN_LEN, A_PEN_LEN,
    A_COST_X0, A_COST_Y0, A_COST_V0, A_COST_X1, A_COST_Y1, A_COST_V1,
    A_STEP, A_PENALTY, A_TX0, A_TX1, A_TY0, A_TY1, A_MAX_EXPANSIONS,
    /* results */
    A_OUT_COST, A_OUT_EXPANSIONS, A_OUT_LEN,
    A_SLOTS
};

typedef unsigned __int128 hkey_t;

typedef struct {
    hkey_t *a;
    int64_t n;
    int64_t cap;
} heap_t;

static int heap_push(heap_t *h, hkey_t v)
{
    if (h->n == h->cap) {
        int64_t cap = h->cap ? h->cap * 2 : 256;
        hkey_t *a = (hkey_t *)realloc(h->a, (size_t)cap * sizeof(hkey_t));
        if (!a)
            return 0;
        h->a = a;
        h->cap = cap;
    }
    int64_t i = h->n++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h->a[p] <= v)
            break;
        h->a[i] = h->a[p];
        i = p;
    }
    h->a[i] = v;
    return 1;
}

static hkey_t heap_pop(heap_t *h)
{
    hkey_t top = h->a[0];
    hkey_t v = h->a[--h->n];
    int64_t i = 0;
    for (;;) {
        int64_t c = 2 * i + 1;
        if (c >= h->n)
            break;
        if (c + 1 < h->n && h->a[c + 1] < h->a[c])
            c++;
        if (h->a[c] >= v)
            break;
        h->a[i] = h->a[c];
        i = c;
    }
    h->a[i] = v;
    return top;
}

/* Backtrack goal→source, then reverse: path_out holds the source→goal
 * chain.  Returns its length. */
static int64_t backtrack(const int32_t *parent, int64_t goal,
                         int32_t *path_out)
{
    int64_t len = 0;
    int64_t idx = goal;
    for (;;) {
        path_out[len++] = (int32_t)idx;
        int32_t p = parent[idx];
        if (p < 0)
            break;
        idx = p;
    }
    for (int64_t i = 0, j = len - 1; i < j; i++, j--) {
        int32_t t = path_out[i];
        path_out[i] = path_out[j];
        path_out[j] = t;
    }
    return len;
}

/* out[0] = goal cost (or overflowing g on ST_OVERFLOW)
 * out[1] = expansions
 * out[2] = path length (source-first)
 */
static int64_t astar(
    const int32_t *occ, const int32_t *pin,
    int64_t width, int64_t height,
    int64_t net_id, int64_t allow_conflicts,
    const uint8_t *frozen, int64_t frozen_len,
    const int64_t *penalties, int64_t pen_len,
    const int64_t *row0, const int64_t *row1,
    int64_t step, int64_t base_penalty,
    const uint8_t *target,
    int64_t tx0, int64_t tx1, int64_t ty0, int64_t ty1,
    const int64_t *src_idx, int64_t n_src,
    int64_t max_expansions,
    int64_t *best, int32_t *parent, int64_t *stamp, int64_t gen,
    int32_t *path_out, int64_t *out)
{
    int64_t plane = width * height;
    heap_t heap = {0, 0, 0};
    int64_t expansions = 0;
    int64_t goal = -1;
    int64_t goal_cost = 0;
    int64_t status;

    for (int64_t i = 0; i < n_src; i++) {
        int64_t idx = src_idx[i];
        if (stamp[idx] != gen || best[idx] > 0) {
            stamp[idx] = gen;
            best[idx] = 0;
            parent[idx] = -1;
            int64_t rest = idx % plane;
            int64_t sy = rest / width;
            int64_t sx = rest - sy * width;
            int64_t dx = sx < tx0 ? tx0 - sx : (sx > tx1 ? sx - tx1 : 0);
            int64_t dy = sy < ty0 ? ty0 - sy : (sy > ty1 ? sy - ty1 : 0);
            if (!heap_push(&heap, ((hkey_t)((dx + dy) * step) << F_SHIFT)
                                      | (hkey_t)idx)) {
                status = ST_NOMEM;
                goto done;
            }
        }
    }

    while (heap.n > 0) {
        hkey_t entry = heap_pop(&heap);
        int64_t index = (int64_t)(entry & (hkey_t)INDEX_MASK);
        int64_t g = (int64_t)((entry >> G_SHIFT) & (hkey_t)FIELD_MASK);
        if (stamp[index] != gen || best[index] != g)
            continue; /* stale entry */
        if (target[index]) {
            goal = index;
            goal_cost = g;
            break;
        }
        expansions++;
        if (expansions > max_expansions)
            break;
        int64_t layer = index >= plane;
        const int64_t *row = layer ? row1 : row0;
        int64_t rest = index - layer * plane;
        int64_t y = rest / width;
        int64_t x = rest - y * width;

        /* Moves in the reference order: x+1, x-1, y+1, y-1, via. */
        int64_t succs[5], axes[5], sxs[5], sys[5];
        int nmov = 0;
        if (x + 1 < width) {
            succs[nmov] = index + 1; axes[nmov] = 0;
            sxs[nmov] = x + 1; sys[nmov] = y; nmov++;
        }
        if (x > 0) {
            succs[nmov] = index - 1; axes[nmov] = 0;
            sxs[nmov] = x - 1; sys[nmov] = y; nmov++;
        }
        if (y + 1 < height) {
            succs[nmov] = index + width; axes[nmov] = 1;
            sxs[nmov] = x; sys[nmov] = y + 1; nmov++;
        }
        if (y > 0) {
            succs[nmov] = index - width; axes[nmov] = 1;
            sxs[nmov] = x; sys[nmov] = y - 1; nmov++;
        }
        succs[nmov] = index + (layer ? -plane : plane);
        axes[nmov] = 2; sxs[nmov] = x; sys[nmov] = y; nmov++;

        for (int m = 0; m < nmov; m++) {
            int64_t succ = succs[m];
            int64_t owner = occ[succ];
            int64_t extra;
            if (owner == CELL_FREE || owner == net_id) {
                extra = 0;
            } else if (owner == CELL_OBSTACLE || !allow_conflicts) {
                continue;
            } else if ((owner < frozen_len && frozen[owner]) || pin[succ]) {
                continue;
            } else {
                extra = base_penalty
                        + (owner < pen_len ? penalties[owner] : 0);
            }
            int64_t new_g = g + row[axes[m]] + extra;
            if (stamp[succ] != gen)
                stamp[succ] = gen;
            else if (best[succ] <= new_g)
                continue;
            best[succ] = new_g;
            parent[succ] = (int32_t)index;
            int64_t sx = sxs[m], sy = sys[m];
            int64_t dx = sx < tx0 ? tx0 - sx : (sx > tx1 ? sx - tx1 : 0);
            int64_t dy = sy < ty0 ? ty0 - sy : (sy > ty1 ? sy - ty1 : 0);
            if (new_g >= G_LIMIT) {
                out[0] = new_g;
                out[1] = expansions;
                status = ST_OVERFLOW;
                goto done;
            }
            hkey_t key = ((hkey_t)(new_g + (dx + dy) * step) << F_SHIFT)
                         | ((hkey_t)new_g << G_SHIFT) | (hkey_t)succ;
            if (!heap_push(&heap, key)) {
                status = ST_NOMEM;
                goto done;
            }
        }
    }

    if (goal < 0) {
        out[0] = 0;
        out[1] = expansions;
        out[2] = 0;
        status = expansions > max_expansions ? ST_EXHAUSTED : ST_NOPATH;
    } else {
        out[0] = goal_cost;
        out[1] = expansions;
        out[2] = backtrack(parent, goal, path_out);
        status = ST_FOUND;
    }
done:
    free(heap.a);
    return status;
}

/* out[0] = path length (source-first) */
static int64_t lee(
    const int32_t *occ,
    int64_t width, int64_t height,
    int64_t net_id,
    const uint8_t *target,
    const int64_t *src_idx, int64_t n_src,
    int32_t *parent, int64_t *stamp, int64_t gen,
    int32_t *path_out, int64_t *out)
{
    int64_t plane = width * height;
    int64_t n = 2 * plane;
    int32_t *queue = (int32_t *)malloc((size_t)n * sizeof(int32_t));
    if (!queue)
        return ST_NOMEM;
    int64_t head = 0, tail = 0;
    int64_t goal = -1;

    for (int64_t i = 0; i < n_src; i++) {
        int64_t idx = src_idx[i];
        if (stamp[idx] != gen) {
            stamp[idx] = gen;
            parent[idx] = -1;
            if (target[idx]) {
                goal = idx;
                break;
            }
            queue[tail++] = (int32_t)idx;
        }
    }

    while (head < tail && goal < 0) {
        int64_t index = queue[head++];
        int64_t layer = index >= plane;
        int64_t rest = index - layer * plane;
        int64_t y = rest / width;
        int64_t x = rest - y * width;
        int64_t succs[5];
        int nmov = 0;
        if (x + 1 < width)
            succs[nmov++] = index + 1;
        if (x > 0)
            succs[nmov++] = index - 1;
        if (y + 1 < height)
            succs[nmov++] = index + width;
        if (y > 0)
            succs[nmov++] = index - width;
        succs[nmov++] = index + (layer ? -plane : plane);
        for (int m = 0; m < nmov; m++) {
            int64_t succ = succs[m];
            if (stamp[succ] == gen)
                continue;
            int64_t owner = occ[succ];
            if (owner != CELL_FREE && owner != net_id)
                continue;
            stamp[succ] = gen;
            parent[succ] = (int32_t)index;
            if (target[succ]) {
                goal = succ;
                break;
            }
            queue[tail++] = (int32_t)succ;
        }
    }

    free(queue);
    if (goal < 0) {
        out[0] = 0;
        return ST_NOPATH;
    }
    out[0] = backtrack(parent, goal, path_out);
    return ST_FOUND;
}

#define PTR(type, slot) ((type *)(intptr_t)a[slot])

int64_t repro_astar(int64_t *a)
{
    const int64_t row0[3] = {a[A_COST_X0], a[A_COST_Y0], a[A_COST_V0]};
    const int64_t row1[3] = {a[A_COST_X1], a[A_COST_Y1], a[A_COST_V1]};
    return astar(
        PTR(const int32_t, A_OCC), PTR(const int32_t, A_PIN),
        a[A_WIDTH], a[A_HEIGHT],
        a[A_NET], a[A_CONFLICTS],
        PTR(const uint8_t, A_FROZEN), a[A_FROZEN_LEN],
        PTR(const int64_t, A_PENALTIES), a[A_PEN_LEN],
        row0, row1,
        a[A_STEP], a[A_PENALTY],
        PTR(const uint8_t, A_TARGET),
        a[A_TX0], a[A_TX1], a[A_TY0], a[A_TY1],
        PTR(const int64_t, A_SRC), a[A_NSRC],
        a[A_MAX_EXPANSIONS],
        PTR(int64_t, A_BEST), PTR(int32_t, A_PARENT),
        PTR(int64_t, A_STAMP), a[A_GEN],
        PTR(int32_t, A_PATH), a + A_OUT_COST);
}

int64_t repro_lee(int64_t *a)
{
    return lee(
        PTR(const int32_t, A_OCC),
        a[A_WIDTH], a[A_HEIGHT],
        a[A_NET],
        PTR(const uint8_t, A_TARGET),
        PTR(const int64_t, A_SRC), a[A_NSRC],
        PTR(int32_t, A_PARENT), PTR(int64_t, A_STAMP), a[A_GEN],
        PTR(int32_t, A_PATH), a + A_OUT_LEN);
}

/* Slot count, so compiled.py can refuse a block layout it does not match. */
int64_t repro_slots(void)
{
    return A_SLOTS;
}
