/*
 * Validate-and-split scan of JSONL trace lines for repro.httplog.loader,
 * in the spirit of Langdale & Lemire, "Parsing Gigabytes of JSON per
 * Second" (VLDB Journal 2019), restricted to the one line shape that
 * write_jsonl emits.
 *
 * One call scans data[start:end), a block of complete lines.  Lines end
 * at "\n", "\r\n" or a lone "\r", as in Python's text mode; the block's
 * last line may also end at `end`.  A line that is exactly in the
 * grammar of loader._CANONICAL,
 *
 *   {"ts":T,"client":"S+","host":"S+","ip":"S*","uri":"/S*",
 *    "ua":"S*","ref":"S*","status":N,"method":"S*"}
 *
 * with T a JSON number that has a fraction or an exponent, N "0" or one
 * to nine digits without a leading zero, and S any byte but '"', '\\'
 * and 0x00-0x1f, becomes one row: its seven strings as ids interned per
 * call (equal bytes, equal id; every hash hit is checked with memcmp),
 * its timestamp's text, and its status code.  On valid UTF-8 that byte
 * class is exactly the regular expression's character class, since
 * every byte of a multi-byte character is >= 0x80; the caller decodes
 * each distinct string strictly, so invalid UTF-8 still fails there.
 * Every other non-empty line is flagged with its byte span and the
 * number of rows before it; empty lines are skipped.
 *
 * Outputs, all sized by the caller and checked here before each write:
 *   ids[f * row_cap + row]  string id of field f (client, host, ip, uri,
 *                           ua, ref, method) of each row
 *   status[row]             status code of each row
 *   text                    the distinct strings in id order, joined by
 *                           "\n" (which no such string contains)
 *   stamps                  each row's timestamp text followed by " "
 *   flags[3 * k ...]        line start, line end (terminator excluded),
 *                           rows before it
 *   counts                  see the COUNT_ names below
 * table (table_size slots, a power of two; a call interns at most
 * table_size / 2 strings) and entries (3 per string: text offset,
 * length, hash) are scratch.
 *
 * A call stops before a line that would overflow an output and reports
 * the offset it reached, so the caller resumes there.  The kernel reads
 * only inside data[start:end), uses no NUL-terminated string functions,
 * allocates nothing and keeps no static mutable state.
 */

#include <stdint.h>
#include <string.h>

#define FIELDS 7

enum {
    COUNT_ROWS,
    COUNT_STRINGS,
    COUNT_TEXT,
    COUNT_STAMPS,
    COUNT_FLAGGED,
    COUNT_OFFSET,
    COUNTS
};

typedef const unsigned char *cursor;

typedef struct {
    cursor ts;
    int64_t ts_len;
    cursor text[FIELDS];
    int64_t len[FIELDS];
    int64_t status;
} record;

/* p past the literal text[0:n], or NULL (also when p is NULL). */
static cursor literal(cursor p, cursor end, const char *text, size_t n)
{
    if (p == NULL || (size_t)(end - p) < n || memcmp(p, text, n) != 0)
        return NULL;
    return p + n;
}

/* p past [0-9]+, or NULL when no digit is at p. */
static cursor digits(cursor p, cursor end)
{
    cursor q = p;
    while (q < end && *q >= '0' && *q <= '9')
        q++;
    return q > p ? q : NULL;
}

/* p past -?(0|[1-9][0-9]*)(\.[0-9]+([eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+). */
static cursor number(cursor p, cursor end)
{
    if (p < end && *p == '-')
        p++;
    if (p < end && *p == '0')
        p++;
    else if (p < end && *p >= '1' && *p <= '9')
        p = digits(p, end);
    else
        return NULL;
    int fraction = 0;
    if (p < end && *p == '.') {
        p = digits(p + 1, end);
        if (p == NULL)
            return NULL;
        fraction = 1;
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        p++;
        if (p < end && (*p == '+' || *p == '-'))
            p++;
        return digits(p, end);
    }
    return fraction ? p : NULL;
}

/* p past a string body: bytes other than '"', '\\' and 0x00-0x1f. */
static cursor body(cursor p, cursor end)
{
    while (p < end && *p >= 0x20 && *p != '"' && *p != '\\')
        p++;
    return p;
}

/* "key":"body", with the closing quote of the previous field in front. */
static const struct {
    const char *text;
    size_t n;
} KEYS[FIELDS] = {
    {",\"client\":\"", 11},
    {"\",\"host\":\"", 10},
    {"\",\"ip\":\"", 8},
    {"\",\"uri\":\"", 9},
    {"\",\"ua\":\"", 8},
    {"\",\"ref\":\"", 9},
    {",\"method\":\"", 11},
};

/* The end of the canonical line at p (just past its '}'), or NULL. */
static cursor canonical(cursor p, cursor end, record *r)
{
    p = literal(p, end, "{\"ts\":", 6);
    if (p == NULL)
        return NULL;
    r->ts = p;
    p = number(p, end);
    if (p == NULL)
        return NULL;
    r->ts_len = p - r->ts;
    for (int f = 0; f < FIELDS; f++) {
        if (f == FIELDS - 1) {
            /* The status code sits between ref and method. */
            p = literal(p, end, "\",\"status\":", 11);
            if (p == NULL || p == end || *p < '0' || *p > '9')
                return NULL;
            cursor first = p;
            int64_t code = 0;
            if (*p == '0')
                p++;
            else
                while (p < end && *p >= '0' && *p <= '9' && p - first < 9)
                    code = code * 10 + (*p++ - '0');
            r->status = code;
        }
        p = literal(p, end, KEYS[f].text, KEYS[f].n);
        if (p == NULL)
            return NULL;
        r->text[f] = p;
        p = body(p, end);
        r->len[f] = p - r->text[f];
    }
    p = literal(p, end, "\"}", 2);
    if (p == NULL || (p < end && *p != '\n' && *p != '\r'))
        return NULL;
    /* client and host are non-empty; the uri starts with '/'. */
    if (r->len[0] == 0 || r->len[1] == 0 || r->len[3] == 0 || r->text[3][0] != '/')
        return NULL;
    return p;
}

static uint64_t hash_bytes(cursor s, int64_t n)
{
    uint64_t h = 0x9e3779b97f4a7c15u ^ (uint64_t)n;
    uint64_t w;
    for (; n >= 8; s += 8, n -= 8) {
        memcpy(&w, s, 8);
        h = (h ^ w) * 0xbf58476d1ce4e5b9u;
        h ^= h >> 31;
    }
    w = 0;
    memcpy(&w, s, (size_t)n);
    h = (h ^ w) * 0x94d049bb133111ebu;
    return h ^ (h >> 29);
}

typedef struct {
    int64_t table_size;
    int64_t *table;
    int64_t *entries;
    char *text;
    int64_t strings;
    int64_t text_len;
} interner;

/* The id of s[0:n], added (after a "\n" unless it is the first) if new. */
static int64_t intern(interner *in, cursor s, int64_t n)
{
    uint64_t h = hash_bytes(s, n);
    uint64_t mask = (uint64_t)in->table_size - 1;
    for (uint64_t slot = h & mask;; slot = (slot + 1) & mask) {
        int64_t id = in->table[slot];
        if (id < 0) {
            id = in->strings++;
            in->table[slot] = id;
            if (id > 0)
                in->text[in->text_len++] = '\n';
            memcpy(in->text + in->text_len, s, (size_t)n);
            in->entries[3 * id] = in->text_len;
            in->entries[3 * id + 1] = n;
            in->entries[3 * id + 2] = (int64_t)h;
            in->text_len += n;
            return id;
        }
        const int64_t *e = in->entries + 3 * id;
        if (e[2] == (int64_t)h && e[1] == n && memcmp(in->text + e[0], s, (size_t)n) == 0)
            return id;
    }
}

/*
 * Scan data[start:end).  Returns 0 when the block is done, 1 when an
 * output filled first (counts[COUNT_OFFSET] is where to resume), and -1
 * on arguments that break the sizing contract.
 */
int64_t jsonl_scan(const char *data, int64_t start, int64_t end, int64_t row_cap,
                   int64_t *ids, int64_t *status, int64_t table_size, int64_t *table,
                   int64_t *entries, char *text, int64_t text_cap, char *stamps,
                   int64_t stamp_cap, int64_t flag_cap, int64_t *flags, int64_t *counts)
{
    if (start < 0 || end < start || row_cap < 0 || flag_cap < 0 || text_cap < 0 ||
        stamp_cap < 0 || table_size < 2 * FIELDS || (table_size & (table_size - 1)) != 0)
        return -1;
    cursor base = (cursor)data;
    cursor block_end = base + end;
    cursor p = base + start;
    interner in = {table_size, table, entries, text, 0, 0};
    int64_t rows = 0, stamp_len = 0, flagged = 0;
    int64_t full = 0;
    /* Each field's previous string, which the next row often repeats. */
    cursor last[FIELDS];
    int64_t last_len[FIELDS], last_id[FIELDS];
    for (int f = 0; f < FIELDS; f++)
        last_len[f] = -1;
    memset(table, 0xff, (size_t)table_size * sizeof *table);
    while (p < block_end) {
        cursor line = p;
        record r;
        cursor stop = canonical(line, block_end, &r);
        if (stop != NULL) {
            /* The line holds each string and the timestamp followed by
             * at least one byte, so its length bounds what it adds to
             * text and to stamps.  The table stays at most half full. */
            int64_t length = stop - line;
            if (rows == row_cap || in.strings + FIELDS > table_size / 2 ||
                in.text_len + length > text_cap || stamp_len + length > stamp_cap) {
                full = 1;
                break;
            }
            for (int f = 0; f < FIELDS; f++) {
                if (r.len[f] != last_len[f] ||
                    memcmp(r.text[f], last[f], (size_t)r.len[f]) != 0) {
                    last[f] = r.text[f];
                    last_len[f] = r.len[f];
                    last_id[f] = intern(&in, r.text[f], r.len[f]);
                }
                ids[f * row_cap + rows] = last_id[f];
            }
            memcpy(stamps + stamp_len, r.ts, (size_t)r.ts_len);
            stamp_len += r.ts_len;
            stamps[stamp_len++] = ' ';
            status[rows++] = r.status;
            p = stop;
        } else {
            while (p < block_end && *p != '\n' && *p != '\r')
                p++;
            if (p > line) {
                if (flagged == flag_cap) {
                    p = line;
                    full = 1;
                    break;
                }
                flags[3 * flagged] = line - base;
                flags[3 * flagged + 1] = p - base;
                flags[3 * flagged + 2] = rows;
                flagged++;
            }
        }
        if (p < block_end)
            p += (*p == '\r' && p + 1 < block_end && p[1] == '\n') ? 2 : 1;
    }
    counts[COUNT_ROWS] = rows;
    counts[COUNT_STRINGS] = in.strings;
    counts[COUNT_TEXT] = in.text_len;
    counts[COUNT_STAMPS] = stamp_len;
    counts[COUNT_FLAGGED] = flagged;
    counts[COUNT_OFFSET] = p - base;
    return full;
}
