"""Kostka numbers of a rectangle by brute force, written without any of the
package's code.

On G(q, N), a product of special classes sigma_{mu_1} ... sigma_{mu_r} whose
indices fill the q x (N-q) box is K times the point class, where K counts the
semistandard tableaux of the rectangle with content mu (Fulton, *Young
Tableaux* §9.4). Here every filling is tried cell by cell in row-major order;
no strip or Pieri rule is used.
"""


def rectangle_kostka(rows: int, cols: int, content) -> int:
    """Semistandard tableaux of the rows x cols rectangle with content[v] entries v."""
    if rows * cols != sum(content):
        return 0
    left = list(content)
    grid = [[0] * cols for _ in range(rows)]

    def fill(cell):
        if cell == rows * cols:
            return 1
        i, j = divmod(cell, cols)
        low = grid[i][j - 1] if j else 0  # rows weakly increase
        if i:
            low = max(low, grid[i - 1][j] + 1)  # columns strictly increase
        count = 0
        for v in range(low, len(left)):
            if left[v]:
                left[v] -= 1
                grid[i][j] = v
                count += fill(cell + 1)
                left[v] += 1
        return count

    return fill(0)
