/* Maximum clique of the Cayley graph on F_2^n with generator set A, by branch
 * and bound over word bitsets.  This is the search of cliques.max_clique,
 * whose docstring argues its two symmetry rules; that function builds the
 * seed and checks the result, this file does every node of the search.
 *
 * Each graph searched, the root's on A and each root branch's on P2, is
 * labelled 0..k-1 in increasing order of its vertices and held as k rows of
 * nw = ceil(k / 64) words (BBMC, San Segundo et al. 2011).  A node colors its
 * candidates greedily, class by class, and lists only the vertices of color
 * at least kmin = best - |R| + 1 (MCQ, Tomita & Kameda 2007).
 */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef uint64_t word;

enum { SEARCH_DONE = 0, SEARCH_STOPPED = 1, SEARCH_NOMEM = 2 };

typedef struct {
    int32_t v, color;
} item;

typedef struct {
    uint8_t *dbits;     /* D: the root candidates not yet branched, by element */
    int32_t *idx;       /* element -> local index in the current branch */
    const int32_t *lab; /* local index -> element, increasing */
    int32_t *partner;   /* local index of w + v, for the branch on v */
    word *adj;          /* k rows of nw words */
    int32_t nw;
    word *pstack;       /* one candidate set of nw words per depth */
    word *scratch;      /* 2 nw words for the coloring */
    item *items;        /* listed vertices of every open node, stacked */
    size_t items_cap, items_top;
    int32_t *r;         /* current clique, elements */
    int32_t *witness;   /* last improving clique, elements */
    int32_t best;
    int64_t nodes, budget;
    int has_budget;
} search;

#define BIT(v) ((word)1 << ((v) & 63))

/* adj[u] has w iff lab[u] + lab[w] lies in D; D never holds 0. */
static void local_graph(search *s, const int32_t *lab, int32_t k)
{
    int32_t nw = (k + 63) >> 6;
    s->nw = nw;
    memset(s->adj, 0, (size_t)k * nw * sizeof(word));
    for (int32_t u = 0; u < k; u++) {
        word *row = s->adj + (size_t)u * nw;
        for (int32_t w = u + 1; w < k; w++)
            if (s->dbits[lab[u] ^ lab[w]]) {
                row[w >> 6] |= BIT(w);
                s->adj[(size_t)w * nw + (u >> 6)] |= BIT(u);
            }
    }
}

/* Color P class by class, stacking the vertices of color >= kmin in the
 * order colored; stop once the classes done plus the candidates left fall
 * short of kmin.  Sets *m to the number stacked. */
static int color_order(search *s, const word *P, int32_t kmin, size_t *m)
{
    int32_t nw = s->nw, lo = 0, color = 0;
    word *U = s->scratch, *Q = s->scratch + nw;
    int64_t left = 0;
    for (int32_t j = 0; j < nw; j++) {
        U[j] = P[j];
        left += __builtin_popcountll(P[j]);
    }
    if (s->items_top + (size_t)left > s->items_cap) {
        size_t cap = 2 * s->items_cap + (size_t)left;
        item *grown = realloc(s->items, cap * sizeof(item));
        if (!grown)
            return SEARCH_NOMEM;
        s->items = grown;
        s->items_cap = cap;
    }
    item *out = s->items + s->items_top;
    size_t count = 0;
    while (left > 0) {
        color++;
        if (color - 1 + left < kmin)
            break;
        while (!U[lo])
            lo++;
        memcpy(Q + lo, U + lo, (size_t)(nw - lo) * sizeof(word));
        for (int32_t j = lo; j < nw; j++) {
            while (Q[j]) {
                int32_t v = (j << 6) + __builtin_ctzll(Q[j]);
                const word *row = s->adj + (size_t)v * nw;
                U[j] &= ~BIT(v);
                left--;
                Q[j] &= ~row[j] & ~BIT(v);
                for (int32_t t = j + 1; t < nw; t++)
                    Q[t] &= ~row[t];
                if (color >= kmin) {
                    out[count].v = v;
                    out[count].color = color;
                    count++;
                }
            }
        }
    }
    *m = count;
    return SEARCH_DONE;
}

/* The node with clique r[0..r_size) and candidates P = pstack[depth]; the
 * pairing rule applies at a root branch's first level only. */
static int expand(search *s, int32_t r_size, size_t depth, int pairing)
{
    int32_t nw = s->nw;
    word *P = s->pstack + depth * nw, *P2 = P + nw;
    size_t base = s->items_top, m;
    int rc = color_order(s, P, s->best - r_size + 1, &m);
    if (rc)
        return rc;
    s->items_top = base + m;
    for (size_t i = m; i-- > 0;) {
        item it = s->items[base + i];
        if (r_size + it.color <= s->best)
            break;
        int32_t v = it.v;
        if (!(P[v >> 6] & BIT(v)))
            continue;
        if (s->has_budget && s->nodes >= s->budget) {
            rc = SEARCH_STOPPED;
            break;
        }
        s->nodes++;
        const word *row = s->adj + (size_t)v * nw;
        word any = 0;
        for (int32_t j = 0; j < nw; j++)
            any |= P2[j] = P[j] & row[j];
        s->r[r_size] = s->lab[v];
        if (any) {
            rc = expand(s, r_size + 1, depth + 1, 0);
            if (rc)
                break;
        } else if (r_size + 1 > s->best) {
            s->best = r_size + 1;
            memcpy(s->witness, s->r, (size_t)s->best * sizeof(int32_t));
        }
        P[v >> 6] &= ~BIT(v);
        if (pairing) {
            int32_t p = s->partner[v];
            P[p >> 6] &= ~BIT(p);
        }
    }
    s->items_top = base;
    return rc;
}

/* Search the graph on F_2^n with the k sorted nonzero generators A, from an
 * incumbent of seed_size vertices.  With has_budget, stop before node
 * budget + 1.  Writes the best size, the node count and 1 if the budget
 * stopped the search to out[0..3), and the elements of the last improving
 * clique to witness (N entries) when the best size exceeds seed_size.
 * Returns 0, or 2 when memory ran out. */
int f2c_max_clique(int32_t n, const int32_t *A, int32_t k, int32_t seed_size,
                   int32_t has_budget, int64_t budget, int32_t *witness, int64_t *out)
{
    int32_t N = (int32_t)1 << n, nw0 = (k + 63) >> 6;
    search s = {0};
    s.best = seed_size;
    s.budget = budget;
    s.has_budget = has_budget;
    s.witness = witness;
    s.dbits = calloc((size_t)N, 1);
    s.idx = malloc((size_t)N * sizeof(int32_t));
    s.partner = malloc((size_t)(k + 1) * sizeof(int32_t));
    int32_t *lab = malloc((size_t)(k + 1) * sizeof(int32_t));
    s.adj = malloc(((size_t)k * nw0 + 1) * sizeof(word));
    s.pstack = malloc(((size_t)(k + 1) * nw0 + 1) * sizeof(word));
    s.scratch = malloc((2 * (size_t)nw0 + 1) * sizeof(word));
    s.r = malloc((size_t)(N + 1) * sizeof(int32_t));
    int rc = SEARCH_DONE;
    if (!s.dbits || !s.idx || !s.partner || !lab || !s.adj || !s.pstack || !s.scratch || !s.r) {
        rc = SEARCH_NOMEM;
        goto done;
    }
    for (int32_t i = 0; i < k; i++)
        s.dbits[A[i]] = 1;

    /* the root: clique {0}, candidates A, kmin = best */
    local_graph(&s, A, k);
    for (int32_t j = 0; j < nw0; j++)
        s.pstack[j] = j < k >> 6 ? ~(word)0 : (BIT(k) - 1);
    size_t m0;
    rc = color_order(&s, s.pstack, s.best, &m0);
    if (rc)
        goto done;
    s.items_top = m0;
    s.r[0] = 0;
    for (size_t i = m0; i-- > 0;) {
        item it = s.items[i];
        if (1 + it.color <= s.best)
            break;
        int32_t v = A[it.v];
        if (s.has_budget && s.nodes >= s.budget) {
            rc = SEARCH_STOPPED;
            break;
        }
        s.nodes++;
        int32_t k2 = 0;
        for (int32_t j = 0; j < k; j++)  /* P2 of the difference rule */
            if (s.dbits[A[j]] && s.dbits[A[j] ^ v])
                lab[k2++] = A[j];
        if (k2) {
            local_graph(&s, lab, k2);
            for (int32_t j = 0; j < k2; j++)
                s.idx[lab[j]] = j;
            for (int32_t j = 0; j < k2; j++)
                s.partner[j] = s.idx[lab[j] ^ v];
            for (int32_t j = 0; j < s.nw; j++)
                s.pstack[j] = j < k2 >> 6 ? ~(word)0 : (BIT(k2) - 1);
            s.lab = lab;
            s.r[1] = v;
            rc = expand(&s, 2, 0, 1);
            if (rc)
                break;
        } else if (2 > s.best) {
            s.best = 2;
            witness[0] = 0;
            witness[1] = v;
        }
        s.dbits[v] = 0;
    }
done:
    out[0] = s.best;
    out[1] = s.nodes;
    out[2] = rc == SEARCH_STOPPED;
    free(s.dbits);
    free(s.idx);
    free(s.partner);
    free(lab);
    free(s.adj);
    free(s.pstack);
    free(s.scratch);
    free(s.items);
    free(s.r);
    return rc == SEARCH_NOMEM ? SEARCH_NOMEM : 0;
}
