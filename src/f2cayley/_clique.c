/* The two searches of cliques.py over the Cayley graph on F_2^n with
 * generator set A, built by _native.py as one library with two entry points:
 *
 * - f2c_max_clique: the maximum clique, by branch and bound over word
 *   bitsets.  This is the search of cliques.max_clique, whose docstring
 *   argues its two symmetry rules.
 * - f2c_subspaces: the subspaces whose nonzero part lies in A, counted per
 *   dimension, with the first deepest one met; the search of
 *   cliques.subspace_cliques, at the end of this file.
 *
 * The Python side builds the inputs and checks every result; this file does
 * every node of both searches.
 *
 * A set of F_2^n is held as 2^n bits in nw = max(1, 2^n / 64) words; for
 * n < 6 only the low 2^n bits of the one word are used.  Translation by v
 * permutes the words by v >> 6 and the bits inside each word by v & 63.
 *
 * In the clique search, each graph searched, the root's on A and each root
 * branch's on P2, is labelled 0..k-1 in increasing order of its vertices and
 * held as k rows of nw = ceil(k / 64) words (BBMC, San Segundo et al. 2011).
 * Every row is a set compressed by a mask, one 64-bit word at a time: the
 * bits under the mask, in order, packed to the low end.  That is one BMI2
 * pext a word on an x86-64 CPU with a fast one, checked once per search, and
 * otherwise Warren's six steps (Hacker's Delight, 7-4).  Both give the same
 * rows, and only the pext packer is built for BMI2, so the library runs on
 * any CPU of its architecture.  The root's row u is A's indicator translated
 * by A[u] and compressed by A itself, so it has w iff A[u] + A[w] lies in A.
 * It is then kept as the running root adjacency over D, the root candidates
 * not yet branched: once the branch on v is done, the pairs of D whose sum
 * is v are cleared.  A root branch's P2 is D's mask and v's row, and each of
 * its rows is that root row compressed by P2's mask.  A node colors its
 * candidates greedily, class by class, and lists only the vertices of color
 * at least kmin = best - |R| + 1 (MCQ, Tomita & Kameda 2007).  The coloring
 * is compiled once for each row width of 1 to 4 words, with its sets in
 * registers, and once for wider rows; every width colors in the same order.
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
} search;

#define BIT(v) ((word)1 << ((v) & 63))

/* LOW[s] marks the bit positions whose index bit s is 0. */
static const word LOW[6] = {
    0x5555555555555555ULL, 0x3333333333333333ULL, 0x0F0F0F0F0F0F0F0FULL,
    0x00FF00FF00FF00FFULL, 0x0000FFFF0000FFFFULL, 0x00000000FFFFFFFFULL,
};

/* Permute the bits of one word by the translation x -> x + t, t < 64: one
 * swap of bit blocks for each set bit of t. */
static word shift_in_word(word x, int32_t t)
{
    for (; t; t &= t - 1) {
        int32_t s = __builtin_ctz((uint32_t)t);
        x = ((x >> (1 << s)) & LOW[s]) | ((x & LOW[s]) << (1 << s));
    }
    return x;
}

/* One nonzero word j of a mask, with its bit count and the six move masks
 * that compress a word by it: the bits of x & mask, in order, to the low
 * end (Hacker's Delight, 7-4). */
typedef struct {
    word mask, mv[6];
    int32_t j, cnt;
} mask_word;

static void set_mask_word(mask_word *w, word mask, int32_t j)
{
    word m = mask, mk = ~m << 1;  /* counts the zeros of m to the right of each bit */
    w->mask = mask;
    w->j = j;
    w->cnt = __builtin_popcountll(mask);
    for (int32_t i = 0; i < 6; i++) {
        word mp = mk ^ (mk << 1);
        mp ^= mp << 2;
        mp ^= mp << 4;
        mp ^= mp << 8;
        mp ^= mp << 16;
        mp ^= mp << 32;
        w->mv[i] = mp & m;
        m = (m ^ w->mv[i]) | (w->mv[i] >> (1 << i));
        mk &= ~mp;
    }
}

static word compress(word x, const mask_word *w)
{
    x &= w->mask;
    for (int32_t i = 0; i < 6; i++) {
        word t = x & w->mv[i];
        x = (x ^ t) | (t >> (1 << i));
    }
    return x;
}

/* The words src[masks[t].j] (t < nj), each compressed by its mask word
 * with comp, packed into out, low bits first: ceil(total count / 64) words. */
static inline void pack_words(word *out, const word *src, const mask_word *masks, int32_t nj,
                              word (*comp)(word, const mask_word *))
{
    word acc = 0;
    int32_t sh = 0;
    for (int32_t t = 0; t < nj; t++) {
        const mask_word *w = masks + t;
        word x = comp(src[w->j], w);
        acc |= x << sh;
        sh += w->cnt;
        if (sh >= 64) {  /* a full word: carry the bits of x past it */
            *out++ = acc;
            sh -= 64;
            acc = sh ? x >> (w->cnt - sh) : 0;
        }
    }
    if (sh)
        *out = acc;
}

typedef void packer(word *out, const word *src, const mask_word *masks, int32_t nj);

static void pack_row(word *out, const word *src, const mask_word *masks, int32_t nj)
{
    pack_words(out, src, masks, nj, compress);
}

/* The same with BMI2's pext, one instruction a word in place of six steps.
 * Only this function is built for BMI2, and only a search on a CPU where
 * pext_is_fast holds calls it, so the library runs on any x86-64. */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>

__attribute__((target("bmi2")))
static inline word compress_pext(word x, const mask_word *w)
{
    return _pext_u64(x, w->mask);
}

__attribute__((target("bmi2")))
static void pack_row_pext(word *out, const word *src, const mask_word *masks, int32_t nj)
{
    pack_words(out, src, masks, nj, compress_pext);
}

/* BMI2 is there and its pext is not microcoded, as it is on AMD families
 * 15h and 17h (Excavator, Zen 1 and 2), where the six steps are faster. */
static int pext_is_fast(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("bmi2") && !__builtin_cpu_is("amdfam15h")
           && !__builtin_cpu_is("amdfam17h");
}
#else
#define pack_row_pext pack_row

static int pext_is_fast(void)
{
    return 0;
}
#endif

/* The root's graph kept over D: for labels a, b both in D, bit b of row a
 * is set iff A[a] + A[b] lies in D. */
typedef struct {
    word *adj;        /* k rows of nw0 words */
    word *D;          /* D's mask, nw0 words */
    int32_t nw0;
    mask_word *P2;    /* the nonzero words of A's indicator, then of the current branch's P2 */
    int32_t *rows;    /* local index -> root label, in the current branch */
    packer *pack;     /* pack_row or pack_row_pext, chosen once per search */
} root_state;

/* The branch on the root label a: P2 = D & row a, its elements into
 * lab[0..k2) and its graph into s->adj, local row u being root row rows[u]
 * compressed by P2.  Returns k2. */
static int32_t branch_graph(search *s, root_state *rt, int32_t a, const int32_t *A, int32_t *lab)
{
    const word *rv = rt->adj + (size_t)a * rt->nw0;
    int32_t nj = 0, k2 = 0;
    for (int32_t j = 0; j < rt->nw0; j++) {
        word m = rt->D[j] & rv[j];
        if (!m)
            continue;
        set_mask_word(rt->P2 + nj++, m, j);
        for (; m; m &= m - 1) {
            rt->rows[k2] = (j << 6) + __builtin_ctzll(m);
            lab[k2] = A[rt->rows[k2]];
            k2++;
        }
    }
    int32_t nw = (k2 + 63) >> 6;
    s->nw = nw;
    for (int32_t u = 0; u < k2; u++)
        rt->pack(s->adj + (size_t)u * nw, rt->adj + (size_t)rt->rows[u] * rt->nw0, rt->P2, nj);
    return k2;
}

/* The branch on root label a is done: drop a from D and clear the pairs of
 * D whose sum is A[a].  Every such pair is u, partner[u] in the branch's P2,
 * so its k2 labels are all the rows a later branch can read. */
static void drop_root_label(root_state *rt, const int32_t *partner, int32_t a, int32_t k2)
{
    for (int32_t u = 0; u < k2; u++) {
        int32_t b = rt->rows[partner[u]];
        rt->adj[(size_t)rt->rows[u] * rt->nw0 + (b >> 6)] &= ~BIT(b);
    }
    rt->D[a >> 6] &= ~BIT(a);
}

/* Word j of one color class: take its vertices lowest first from a local q,
 * each removing its neighbours from the class's later words. */
static inline void color_word(const search *s, word *U, word *Q, int32_t j, int32_t nw,
                              int32_t color, int32_t kmin, int64_t *left, item *out,
                              size_t *count)
{
    for (word q = Q[j]; q;) {
        int32_t v = (j << 6) + __builtin_ctzll(q);
        const word *row = s->adj + (size_t)v * nw;
        U[j] &= ~BIT(v);
        (*left)--;
        q &= ~row[j] & ~BIT(v);
        for (int32_t t = j + 1; t < nw; t++)
            Q[t] &= ~row[t];
        if (color >= kmin) {
            out[*count].v = v;
            out[*count].color = color;
            (*count)++;
        }
    }
}

/* Color P class by class, stacking the vertices of color >= kmin in the
 * order colored; stop once the classes done plus the candidates left fall
 * short of kmin.  Sets *m to the number stacked.  color_order calls this
 * body with the constants nw = 1..4, so each width is compiled on its own,
 * and with s->nw for wider rows.  For nw <= 4 the uncolored set U and the
 * class's candidates Q are local arrays read only at constant indices, so
 * they stay in registers; a class takes all of U's words, as those below
 * its first nonzero one are empty.  Wider rows keep U and Q in s->scratch
 * and start at that word.  Either way the items come out in the same
 * order. */
static inline int color_order_nw(search *s, const word *P, int32_t kmin, size_t *m, int32_t nw)
{
    word fixed[8];
    word *U = nw <= 4 ? fixed : s->scratch, *Q = U + nw;
    int32_t lo = 0, color = 0;
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
        if (nw > 4)
            while (!U[lo])
                lo++;
        for (int32_t j = lo; j < nw; j++)
            Q[j] = U[j];
        if (nw > 4) {
            for (int32_t j = lo; j < nw; j++)
                color_word(s, U, Q, j, nw, color, kmin, &left, out, &count);
        } else {
            color_word(s, U, Q, 0, nw, color, kmin, &left, out, &count);
            if (nw > 1)
                color_word(s, U, Q, 1, nw, color, kmin, &left, out, &count);
            if (nw > 2)
                color_word(s, U, Q, 2, nw, color, kmin, &left, out, &count);
            if (nw > 3)
                color_word(s, U, Q, 3, nw, color, kmin, &left, out, &count);
        }
    }
    *m = count;
    return SEARCH_DONE;
}

static int color_order(search *s, const word *P, int32_t kmin, size_t *m)
{
    switch (s->nw) {
    case 1:
        return color_order_nw(s, P, kmin, m, 1);
    case 2:
        return color_order_nw(s, P, kmin, m, 2);
    case 3:
        return color_order_nw(s, P, kmin, m, 3);
    case 4:
        return color_order_nw(s, P, kmin, m, 4);
    default:
        return color_order_nw(s, P, kmin, m, s->nw);
    }
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
        if (s->nodes >= s->budget) {
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
 * incumbent of seed_size vertices.  Stop before node budget + 1; no search
 * reaches INT64_MAX nodes, so that budget means none.  Writes the best size,
 * the node count and 1 if the budget stopped the search to out[0..3), and
 * the elements of the last improving clique to witness (N entries) when the
 * best size exceeds seed_size.  Returns 0, or 2 when memory ran out. */
int f2c_max_clique(int32_t n, const int32_t *A, int32_t k, int32_t seed_size,
                   int64_t budget, int32_t *witness, int64_t *out)
{
    int32_t N = (int32_t)1 << n, nw = N < 64 ? 1 : N >> 6, nw0 = (k + 63) >> 6;
    search s = {0};
    root_state rt = {0};
    s.best = seed_size;
    s.budget = budget;
    s.witness = witness;
    rt.nw0 = nw0;
    rt.pack = pext_is_fast() ? pack_row_pext : pack_row;
    word *ind = calloc(2 * (size_t)nw, sizeof(word)), *moved = ind + nw;
    s.idx = malloc((size_t)N * sizeof(int32_t));
    s.partner = malloc((size_t)(k + 1) * sizeof(int32_t));
    int32_t *lab = malloc((size_t)(k + 1) * sizeof(int32_t));
    rt.adj = malloc(((size_t)k * nw0 + 1) * sizeof(word));
    rt.D = malloc(((size_t)nw0 + 1) * sizeof(word));
    rt.P2 = malloc((size_t)nw * sizeof(mask_word));  /* nw >= nw0 */
    rt.rows = malloc((size_t)(k + 1) * sizeof(int32_t));
    s.adj = malloc(((size_t)k * nw0 + 1) * sizeof(word));
    s.pstack = malloc(((size_t)(k + 1) * nw0 + 1) * sizeof(word));
    s.scratch = malloc((2 * (size_t)nw0 + 1) * sizeof(word));
    s.r = malloc((size_t)(N + 1) * sizeof(int32_t));
    int rc = SEARCH_DONE;
    if (!ind || !s.idx || !s.partner || !lab || !rt.adj || !rt.D || !rt.P2 || !rt.rows
        || !s.adj || !s.pstack || !s.scratch || !s.r) {
        rc = SEARCH_NOMEM;
        goto done;
    }
    /* root row u: A's indicator translated by A[u] and compressed by A; u
     * is not in it, as 0 is not in A */
    int32_t nj = 0;
    for (int32_t i = 0; i < k; i++)
        ind[A[i] >> 6] |= BIT(A[i]);
    for (int32_t j = 0; j < nw; j++)
        if (ind[j])
            set_mask_word(rt.P2 + nj++, ind[j], j);
    for (int32_t u = 0; u < k; u++) {
        int32_t o = A[u] >> 6, t = A[u] & 63;
        for (int32_t i = 0; i < nj; i++)
            moved[rt.P2[i].j] = shift_in_word(ind[rt.P2[i].j ^ o], t);
        rt.pack(rt.adj + (size_t)u * nw0, moved, rt.P2, nj);
    }

    /* the root: clique {0}, candidates D = A, kmin = best */
    for (int32_t j = 0; j < nw0; j++)
        rt.D[j] = s.pstack[j] = j < k >> 6 ? ~(word)0 : (BIT(k) - 1);
    word *branch_adj = s.adj;
    s.adj = rt.adj;
    s.nw = nw0;
    size_t m0;
    rc = color_order(&s, s.pstack, s.best, &m0);
    s.adj = branch_adj;
    if (rc)
        goto done;
    s.items_top = m0;
    s.r[0] = 0;
    for (size_t i = m0; i-- > 0;) {
        item it = s.items[i];
        if (1 + it.color <= s.best)
            break;
        int32_t a = it.v, v = A[a];
        if (s.nodes >= s.budget) {
            rc = SEARCH_STOPPED;
            break;
        }
        s.nodes++;
        int32_t k2 = branch_graph(&s, &rt, a, A, lab);  /* P2 of the difference rule */
        if (k2) {
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
        drop_root_label(&rt, s.partner, a, k2);
    }
done:
    out[0] = s.best;
    out[1] = s.nodes;
    out[2] = rc == SEARCH_STOPPED;
    free(ind);
    free(s.idx);
    free(s.partner);
    free(lab);
    free(rt.adj);
    free(rt.D);
    free(rt.P2);
    free(rt.rows);
    free(s.adj);
    free(s.pstack);
    free(s.scratch);
    free(s.items);
    free(s.r);
    return rc == SEARCH_NOMEM ? SEARCH_NOMEM : 0;
}

/* ---- subspace cliques --------------------------------------------------
 * The orderly search of cliques.subspace_cliques, whose docstring argues it:
 * the same nodes in the same order, so the counts and the first deepest
 * basis are those of a search over Python ints, on sets of 2^n bits.
 *
 * Each node holds W(H), one row per depth.  Its elig is given by its
 * pivots and is never stored: the v above the last pivot pd that are zero
 * at every pivot.  A pivot p >= 6 is bit p - 6 of the word index, so elig
 * is zero on every word below word_from(pd + 1) or with a bit of hi, the
 * OR of those bits, and the node walks only the other words, its
 * candidate words.  A pivot p < 6 is bit p inside a word, so on each
 * candidate word elig is low, the AND of LOW[p] over those pivots (and of
 * the 2^n bits of the one word for n < 6), cut in word 0 below 2^(pd + 1).
 * W is exact on the node's candidate words; no other word of it is read. */

typedef struct {
    int32_t n, nw;
    word *W;          /* W(H) of the node at each depth, nw words each */
    int32_t rows[32]; /* basis of the current H, pivots increasing; n <= 30 */
    int32_t *best;    /* first basis met at the deepest dimension so far */
    int32_t best_len;
    int64_t *counts;
} subspace_search;

/* The first word holding an element >= 2^q. */
static int32_t word_from(int32_t q)
{
    return q < 6 ? 0 : (int32_t)1 << (q - 6);
}

/* The candidate word after j: the next index with no bit of hi. */
static inline int32_t next_word(int32_t j, int32_t hi)
{
    return ((j | hi) + 1) & ~hi;
}

/* elig on word 0 of a node with elig low elsewhere and last pivot q - 1. */
static inline word elig0(word low, int32_t q)
{
    return q < 6 ? low & ~(BIT(1 << q) - 1) : low;
}

/* Every descendant of the node with d rows and last pivot pd qualifies (its
 * W contains its elig, and so does each child's).  Add the extensions by
 * m >= 1 more rows with pivots q > pd: a row with pivot q and i earlier
 * pivots has 2^(q - i) choices.  Their first deepest basis adds the rows
 * 2^(pd+1), ..., 2^(n-1).  With n <= 13 every count stays below 2^43. */
static void closed_form(subspace_search *s, int32_t d, int32_t pd)
{
    int32_t n = s->n, extra = n - 1 - pd;
    int64_t dp[32] = {1};
    for (int32_t q = pd + 1; q < n; q++)
        for (int32_t j = q - pd - 1; j >= 0; j--)
            dp[j + 1] += dp[j] << (q - d - j);
    for (int32_t m = 1; m <= extra; m++)
        s->counts[d + m] += dp[m];
    if (d + extra > s->best_len) {
        memcpy(s->best, s->rows, (size_t)d * sizeof(int32_t));
        for (int32_t m = 0; m < extra; m++)
            s->best[d + m] = (int32_t)1 << (pd + 1 + m);
        s->best_len = d + extra;
    }
}

/* The node H with rows[0..d), last pivot pd (-1 at the root) and elig
 * given by hi and low.  The children are H + <v> for v in W & elig. */
static void grow(subspace_search *s, int32_t d, int32_t pd, int32_t hi, word low)
{
    int32_t n = s->n, nw = s->nw;
    const word *W = s->W + (size_t)d * nw;
    word *W2 = s->W + (size_t)(d + 1) * nw, low0 = elig0(low, pd + 1);
    int64_t c = 0;
    int32_t first = -1;
    word missing = 0;
    for (int32_t j = word_from(pd + 1); j < nw; j = next_word(j, hi)) {
        word e = j ? low : low0, cand = W[j] & e;
        if (cand) {
            c += __builtin_popcountll(cand);
            if (first < 0)
                first = (j << 6) + __builtin_ctzll(cand);
        }
        missing |= e & ~W[j];
    }
    if (!c)
        return;
    if (!missing) {
        closed_form(s, d, pd);
        return;
    }
    s->counts[d + 1] += c;
    if (d + 1 > s->best_len) {
        memcpy(s->best, s->rows, (size_t)d * sizeof(int32_t));
        s->best[d] = first;
        s->best_len = d + 1;
    }
    for (int32_t p = 31 - __builtin_clz((uint32_t)first); p < n - 1; p++) {
        /* the v with pivot p: candidate words [j0, j1), masked by bmask,
         * which is low (word 0's cut lies below 2^p) and for p < 6 the
         * bits 2^p..2^(p+1) - 1 */
        int32_t j0 = word_from(p), j1 = p < 6 ? 1 : word_from(p + 1);
        word bmask = low & (p < 6 ? (BIT(1 << p) - 1) << (1 << p) : ~(word)0);
        word any = 0;
        for (int32_t j = j0; j < j1; j = next_word(j, hi))
            any |= W[j] & bmask;
        if (!any)
            continue;
        int32_t lo2 = word_from(p + 1), hi2 = p < 6 ? hi : hi | (int32_t)1 << (p - 6);
        word low2 = p < 6 ? low & LOW[p] : low, low20 = elig0(low2, p + 1);
        any = 0;
        for (int32_t j = lo2; j < nw; j = next_word(j, hi2))
            any |= W[j] & (j ? low2 : low20);
        if (!any)  /* W only shrinks, so no child of pivot p can grow */
            continue;
        for (int32_t j = j0; j < j1; j = next_word(j, hi)) {
            for (word block = W[j] & bmask; block; block &= block - 1) {
                int32_t v = (j << 6) + __builtin_ctzll(block), o = v >> 6, t = v & 63;
                for (int32_t i = lo2; i < nw; i = next_word(i, hi2))
                    W2[i] = W[i] & shift_in_word(W[i ^ o], t);
                s->rows[d] = v;
                grow(s, d + 1, p, hi2, low2);
            }
        }
    }
}

/* Count the subspaces of F_2^n whose nonzero part lies in the k sorted
 * nonzero generators A: counts[m] (m = 0..n) gets the number of dimension
 * m, and witness[0..max_dim) the first deepest basis met, rows with pivots
 * increasing, each zero at the earlier pivots.  Returns 0, or 2 when
 * memory ran out. */
int f2c_subspaces(int32_t n, const int32_t *A, int32_t k, int64_t *counts, int32_t *witness)
{
    int32_t N = (int32_t)1 << n, nw = N < 64 ? 1 : N >> 6;
    subspace_search s = {0};
    s.n = n;
    s.nw = nw;
    s.counts = counts;
    s.best = witness;
    s.W = calloc((size_t)(n + 1) * nw, sizeof(word));
    if (!s.W)
        return SEARCH_NOMEM;
    for (int32_t i = 0; i < k; i++)
        s.W[A[i] >> 6] |= BIT(A[i]);
    memset(counts, 0, (size_t)(n + 1) * sizeof(int64_t));
    counts[0] = 1;
    grow(&s, 0, -1, 0, N < 64 ? BIT(N) - 1 : ~(word)0);  /* any nonzero v may be the first row */
    free(s.W);
    return SEARCH_DONE;
}
